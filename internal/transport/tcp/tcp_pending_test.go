package tcp

import (
	"bufio"
	"net"
	"testing"
	"time"

	"nexus/internal/wire"
)

// pendingFrame builds an encoded wire frame of the given class whose payload
// is n bytes of tag, so the receive side can identify frames by first byte.
func pendingFrame(cls wire.Class, tag byte, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = tag
	}
	return (&wire.Frame{Type: wire.TypeRSR, Flags: wire.ClassFlags(cls),
		DestContext: 1, DestEndpoint: 2, SrcContext: 3, Handler: "h", Payload: p}).Encode()
}

// TestPendingDataCapAndControlPriority drives one outConn over a synchronous
// net.Pipe — writes block until the far side reads, so queue states are
// deterministic — and checks the two outConn overload behaviors at once:
// a data sender that would overflow maxPending blocks before queueing, while
// a control-class frame both ignores the cap and drains ahead of the data
// backlog.
func TestPendingDataCapAndControlPriority(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	defer client.Close()
	oc := newOutConn(client, 64)

	frameA := pendingFrame(wire.ClassNormal, 'A', 20) // fast-path writer, blocks in the pipe
	frameB := pendingFrame(wire.ClassNormal, 'B', 20) // queues: 4+54 = 58 <= 64
	frameC := pendingFrame(wire.ClassNormal, 'C', 20) // would overflow: blocks pre-queue
	frameD := pendingFrame(wire.ClassControl, 'D', 20)

	results := make(map[byte]chan error)
	sendAsync := func(tag byte, frame []byte) {
		ch := make(chan error, 1)
		results[tag] = ch
		go func() { ch <- oc.Send(frame) }()
	}

	waitFor := func(desc string, pred func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !pred() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", desc)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// A claims the socket and blocks mid-write (nothing reads the pipe yet).
	sendAsync('A', frameA)
	waitFor("A to claim the writer", func() bool {
		oc.mu.Lock()
		defer oc.mu.Unlock()
		return oc.writing
	})

	// B fits under the cap and queues behind the writer.
	sendAsync('B', frameB)
	waitFor("B to queue", func() bool {
		oc.mu.Lock()
		defer oc.mu.Unlock()
		return len(oc.pendingData) == 4+len(frameB)
	})

	// C would push pendingData past the cap: it must block WITHOUT queueing.
	sendAsync('C', frameC)
	time.Sleep(20 * time.Millisecond)
	oc.mu.Lock()
	if got := len(oc.pendingData); got != 4+len(frameB) {
		oc.mu.Unlock()
		t.Fatalf("pendingData grew to %d bytes; capped sender queued anyway", got)
	}
	oc.mu.Unlock()

	// D is control class: the cap does not apply, it queues immediately.
	sendAsync('D', frameD)
	waitFor("D to queue as control", func() bool {
		oc.mu.Lock()
		defer oc.mu.Unlock()
		return len(oc.pendingCtl) == 4+len(frameD)
	})
	if got := oc.pendingBytes(); got != uint64(4+len(frameB)+4+len(frameD)) {
		t.Fatalf("pendingBytes = %d, want %d", got, 4+len(frameB)+4+len(frameD))
	}

	// Drain the pipe and record arrival order.
	var order []byte
	br := bufio.NewReader(server)
	for len(order) < 4 {
		frame, err := wire.ReadFrame(br)
		if err != nil {
			t.Fatalf("reading frame %d: %v", len(order), err)
		}
		f, err := wire.Decode(frame)
		if err != nil {
			t.Fatalf("decoding frame %d: %v", len(order), err)
		}
		order = append(order, f.Payload[0])
	}
	for tag, ch := range results {
		select {
		case err := <-ch:
			if err != nil {
				t.Errorf("sender %c: %v", tag, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("sender %c never returned", tag)
		}
	}
	// A was already on the socket; D (control) jumps the queued data; B was
	// queued before C was even admitted.
	want := []byte{'A', 'D', 'B', 'C'}
	if string(order) != string(want) {
		t.Fatalf("arrival order %q, want %q", order, want)
	}
}

// TestTransportStatsReportsPending checks the module-level StatsReporter
// surface: the key exists and sums outbound queues.
func TestTransportStatsReportsPending(t *testing.T) {
	recv, d := initModule(t, nil, 1, &collect{})
	send, _ := initModule(t, nil, 2, &collect{})
	_ = recv
	c, err := send.Dial(d)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(pendingFrame(wire.ClassNormal, 'x', 8)); err != nil {
		t.Fatal(err)
	}
	stats := send.TransportStats()
	if _, ok := stats["tcp.pending.bytes"]; !ok {
		t.Fatalf("TransportStats missing tcp.pending.bytes: %v", stats)
	}
}
