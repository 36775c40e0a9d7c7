package rudp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"nexus/internal/transport"
)

type collect struct {
	mu     sync.Mutex
	frames [][]byte
}

func (c *collect) Deliver(f []byte) {
	c.mu.Lock()
	c.frames = append(c.frames, append([]byte(nil), f...)) // Deliver borrows f
	c.mu.Unlock()
}

func (c *collect) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.frames)
}

func (c *collect) frame(i int) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.frames[i]
}

func initModule(t *testing.T, p transport.Params, ctx transport.ContextID, sink transport.Sink) (*Module, transport.Descriptor) {
	t.Helper()
	m := New(p)
	d, err := m.Init(transport.Env{Context: ctx, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m, *d
}

// drain polls recv until want frames have arrived or the deadline passes.
func drain(t *testing.T, recv *Module, sink *collect, want int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for sink.count() < want && time.Now().Before(deadline) {
		if _, err := recv.Poll(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	if got := sink.count(); got < want {
		t.Fatalf("received %d/%d frames", got, want)
	}
}

func TestInOrderDelivery(t *testing.T) {
	sink := &collect{}
	recv, d := initModule(t, nil, 1, sink)
	send, _ := initModule(t, nil, 2, &collect{})
	c, err := send.Dial(d)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The window is finite, so the sender must run concurrently with the
	// receiver's polling (a sender that outruns an unpolled receiver by a
	// full window blocks — that is the protocol's flow control).
	const n = 100
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := c.Send([]byte{byte(i), byte(i >> 8)}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	drain(t, recv, sink, n, 10*time.Second)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		f := sink.frame(i)
		if int(f[0])|int(f[1])<<8 != i {
			t.Fatalf("frame %d out of order: %v", i, f)
		}
	}
}

func TestReliabilityUnderDataLoss(t *testing.T) {
	sink := &collect{}
	recv, d := initModule(t, nil, 1, sink)
	// 30% of first transmissions vanish; retransmission must recover all.
	send, _ := initModule(t, transport.Params{"loss": "0.3", "rto": "5ms"}, 2, &collect{})
	c, err := send.Dial(d)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 120
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := c.Send([]byte{byte(i)}); err != nil {
				done <- fmt.Errorf("send %d: %w", i, err)
				return
			}
		}
		done <- nil
	}()
	drain(t, recv, sink, n, 20*time.Second)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Exactly once, in order, no duplicates.
	if sink.count() != n {
		t.Fatalf("received %d frames, want exactly %d", sink.count(), n)
	}
	for i := 0; i < n; i++ {
		if sink.frame(i)[0] != byte(i) {
			t.Fatalf("frame %d corrupted/reordered", i)
		}
	}
}

func TestReliabilityUnderAckLoss(t *testing.T) {
	sink := &collect{}
	// Receiver drops 40% of its ACKs: sender retransmits; receiver must
	// deduplicate.
	recv, d := initModule(t, transport.Params{"ack_loss": "0.4"}, 1, sink)
	send, _ := initModule(t, transport.Params{"rto": "5ms"}, 2, &collect{})
	c, err := send.Dial(d)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 60
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := c.Send([]byte{byte(i)}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	drain(t, recv, sink, n, 20*time.Second)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Keep polling a little longer: retransmitted duplicates must not be
	// delivered twice.
	for i := 0; i < 50; i++ {
		recv.Poll()
		time.Sleep(time.Millisecond)
	}
	if sink.count() != n {
		t.Fatalf("received %d frames, want exactly %d (duplicates delivered?)", sink.count(), n)
	}
}

func TestWindowBlocksAndDrains(t *testing.T) {
	sink := &collect{}
	recv, d := initModule(t, nil, 1, sink)
	send, _ := initModule(t, transport.Params{"window": "4", "rto": "5ms"}, 2, &collect{})
	c, err := send.Dial(d)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 40
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		for i := 0; i < n; i++ {
			if err := c.Send([]byte{byte(i)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// The sender cannot finish unless the receiver polls (window of 4):
	// this both exercises blocking and proves ACK-driven window advance.
	drain(t, recv, sink, n, 20*time.Second)
	select {
	case <-sent:
	case <-time.After(5 * time.Second):
		t.Fatal("sender still blocked after all frames delivered")
	}
}

func TestSendTimeoutPoisonsConn(t *testing.T) {
	sink := &collect{}
	recv, d := initModule(t, nil, 1, sink)
	send, _ := initModule(t, transport.Params{"rto": "2ms", "retries": "3", "window": "2"}, 2, &collect{})
	c, err := send.Dial(d)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Kill the receiver: nothing will ever be acknowledged.
	recv.Close()

	if err := c.Send([]byte("x")); err != nil {
		t.Fatalf("first send should queue: %v", err)
	}
	// Eventually sends fail: either the retransmitter gives up
	// (ErrSendTimeout) or the kernel reports the dead peer first (ICMP port
	// unreachable surfaces as a connection-refused write error on a
	// connected UDP socket). Both are terminal.
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := c.Send([]byte("y"))
		if errors.Is(err, ErrSendTimeout) || isRefused(err) {
			return
		}
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("connection never reported failure")
		}
	}
}

func isRefused(err error) bool {
	return err != nil && strings.Contains(err.Error(), "connection refused")
}

func TestOversizeRejected(t *testing.T) {
	_, d := initModule(t, nil, 1, &collect{})
	send, _ := initModule(t, nil, 2, &collect{})
	c, err := send.Dial(d)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(make([]byte, MaxPayload+1)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversize Send = %v", err)
	}
}

func TestTwoConnsIndependentStreams(t *testing.T) {
	sink := &collect{}
	recv, d := initModule(t, nil, 1, sink)
	send, _ := initModule(t, nil, 2, &collect{})
	c1, err := send.Dial(d)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := send.Dial(d)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	// Interleave two independent streams; each must deliver fully.
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 20; i++ {
			if err := c1.Send([]byte{1, byte(i)}); err != nil {
				done <- err
				return
			}
			if err := c2.Send([]byte{2, byte(i)}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	drain(t, recv, sink, 40, 10*time.Second)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	var ones, twos int
	for i := 0; i < sink.count(); i++ {
		switch sink.frame(i)[0] {
		case 1:
			ones++
		case 2:
			twos++
		}
	}
	if ones != 20 || twos != 20 {
		t.Errorf("streams delivered %d/%d, want 20/20", ones, twos)
	}
}

func TestLifecycleErrors(t *testing.T) {
	m := New(nil)
	if _, err := m.Poll(); !errors.Is(err, transport.ErrNotInitialized) {
		t.Errorf("Poll before Init: %v", err)
	}
	if _, err := m.Init(transport.Env{Context: 1, Sink: &collect{}}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Init(transport.Env{Context: 1, Sink: &collect{}}); err == nil {
		t.Error("double Init succeeded")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
	if _, err := m.Poll(); !errors.Is(err, transport.ErrClosed) {
		t.Errorf("Poll after Close: %v", err)
	}
}

func TestRegisteredInDefaultRegistry(t *testing.T) {
	if !transport.Default.Has(Name) {
		t.Fatal("rudp module not registered")
	}
}

func TestApplicable(t *testing.T) {
	m := New(nil)
	if !m.Applicable(transport.Descriptor{Method: Name, Attrs: map[string]string{"addr": "127.0.0.1:1"}}) {
		t.Error("valid descriptor not applicable")
	}
	if m.Applicable(transport.Descriptor{Method: "udp", Attrs: map[string]string{"addr": "x"}}) {
		t.Error("udp descriptor applicable to rudp")
	}
}

// TestBoundedPollReportsProgress pins transport.Reactive rule 1: a Poll that
// stops at maxPollDatagrams having seen only duplicates still has input
// queued behind it, so it must not report an idle pass — a poller that parks
// on 0 would strand the in-order datagram waiting behind the duplicates.
func TestBoundedPollReportsProgress(t *testing.T) {
	sink := &collect{}
	recv, d := initModule(t, nil, 1, sink)
	raw, err := net.Dial("udp", d.Attr("addr"))
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	data := func(seq uint32) []byte {
		pkt := make([]byte, headerLen+1)
		pkt[0] = typeData
		binary.BigEndian.PutUint64(pkt[1:], 7) // conn id
		binary.BigEndian.PutUint32(pkt[9:], seq)
		return pkt
	}
	send := func(pkt []byte) {
		t.Helper()
		if _, err := raw.Write(pkt); err != nil {
			t.Fatal(err)
		}
	}
	send(data(0))
	drain(t, recv, sink, 1, 5*time.Second)

	for i := 0; i < maxPollDatagrams+recvSlots/2; i++ {
		send(data(0)) // duplicates of the delivered datagram
	}
	send(data(1))
	// Loopback datagrams are queued by the time Write returns. The first Poll
	// sees maxPollDatagrams duplicates; the second finds the rest — unless the
	// kernel's receive buffer cap (net.core.rmem_max) dropped the tail.
	n, err := recv.Poll()
	if err != nil {
		t.Fatal(err)
	}
	stoppedAtBound := sink.count() == 1
	if _, err := recv.Poll(); err != nil {
		t.Fatal(err)
	}
	if !stoppedAtBound || sink.count() != 2 {
		t.Skipf("socket buffer holds fewer than %d datagrams", maxPollDatagrams)
	}
	if n == 0 {
		t.Fatal("Poll stopped at the bound with the in-order datagram still queued and returned 0")
	}
}
