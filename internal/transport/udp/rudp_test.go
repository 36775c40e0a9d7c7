package udp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"strings"
	"testing"
	"time"

	"nexus/internal/transport"
)

// pollUntil polls recv until want frames have arrived or the deadline passes.
func pollUntil(t *testing.T, recv transport.Module, sink *collect, want int, timeout time.Duration) {
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
	recv, d := initOn(t, newModule[*Reliable](ReliableName, nil), 1, sink)
	send, _ := initOn(t, newModule[*Reliable](ReliableName, nil), 2, &collect{})
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
	pollUntil(t, recv, sink, n, 10*time.Second)
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
	recv, d := initOn(t, newModule[*Reliable](ReliableName, nil), 1, sink)
	// 30% of first transmissions vanish; retransmission must recover all.
	send, _ := initOn(t, newModule[*Reliable](ReliableName, transport.Params{"loss": "0.3", "rto": "5ms"}), 2, &collect{})
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
	pollUntil(t, recv, sink, n, 20*time.Second)
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
	recv, d := initOn(t, newModule[*Reliable](ReliableName, transport.Params{"ack_loss": "0.4"}), 1, sink)
	send, _ := initOn(t, newModule[*Reliable](ReliableName, transport.Params{"rto": "5ms"}), 2, &collect{})
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
	pollUntil(t, recv, sink, n, 20*time.Second)
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
	recv, d := initOn(t, newModule[*Reliable](ReliableName, nil), 1, sink)
	send, _ := initOn(t, newModule[*Reliable](ReliableName, transport.Params{"window": "4", "rto": "5ms"}), 2, &collect{})
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
	pollUntil(t, recv, sink, n, 20*time.Second)
	select {
	case <-sent:
	case <-time.After(5 * time.Second):
		t.Fatal("sender still blocked after all frames delivered")
	}
}

func TestSendTimeoutPoisonsConn(t *testing.T) {
	sink := &collect{}
	recv, d := initOn(t, newModule[*Reliable](ReliableName, nil), 1, sink)
	send, _ := initOn(t, newModule[*Reliable](ReliableName, transport.Params{"rto": "2ms", "retries": "3", "window": "2"}), 2, &collect{})
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

func TestTwoConnsIndependentStreams(t *testing.T) {
	sink := &collect{}
	recv, d := initOn(t, newModule[*Reliable](ReliableName, nil), 1, sink)
	send, _ := initOn(t, newModule[*Reliable](ReliableName, nil), 2, &collect{})
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
	pollUntil(t, recv, sink, 40, 10*time.Second)
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

// TestBoundedPollReportsProgress pins transport.Reactive rule 1: a Poll that
// stops at maxPollDatagrams having seen only duplicates still has input
// queued behind it, so it must not report an idle pass — a poller that parks
// on 0 would strand the in-order datagram waiting behind the duplicates.
func TestBoundedPollReportsProgress(t *testing.T) {
	sink := &collect{}
	recv, d := initOn(t, newModule[*Reliable](ReliableName, nil), 1, sink)
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
	pollUntil(t, recv, sink, 1, 5*time.Second)

	// The reader's live batch grows with bursts, so a pass can overshoot the
	// bound by up to one batch less one datagram; recvSlots duplicates past
	// the bound keep the in-order datagram behind the first pass.
	for i := 0; i < maxPollDatagrams+recvSlots; i++ {
		send(data(0)) // duplicates of the delivered datagram
	}
	send(data(1))
	// Loopback datagrams are queued by the time Write returns. The first Poll
	// stops at the bound having seen only duplicates; the second finds the
	// rest — unless the kernel's receive buffer cap (net.core.rmem_max)
	// dropped the tail.
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

// counter is a Sink that counts frames without copying them.
type counter struct{ n int }

func (c *counter) Deliver([]byte) { c.n++ }

// TestReliableReceiveAllocs pins rudp's receive path: a Poll that delivers
// in-order datagrams to a sink that does not copy them allocates nothing per
// datagram — the source address is decoded in place, and the stream key and
// the pass's ACK map hold no heap state.
func TestReliableReceiveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	sink := &counter{}
	recv, d := initOn(t, newModule[*Reliable](ReliableName, nil), 1, sink)
	raw, err := net.Dial("udp", d.Attr("addr"))
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	pkt := make([]byte, headerLen+64)
	pkt[0] = typeData
	binary.BigEndian.PutUint64(pkt[1:], 7) // conn id
	const perRun = 8
	seq := uint32(0)
	run := func() {
		for i := 0; i < perRun; i++ {
			binary.BigEndian.PutUint32(pkt[9:], seq)
			seq++
			if _, err := raw.Write(pkt); err != nil {
				t.Fatal(err)
			}
		}
		for tries := 0; sink.n < int(seq) && tries < 1000; tries++ {
			if _, err := recv.Poll(); err != nil {
				t.Fatal(err)
			}
		}
	}
	run() // the stream's state is created once, on its first datagram
	allocs := testing.AllocsPerRun(50, run)
	if sink.n != int(seq) {
		t.Fatalf("delivered %d of %d in-order datagrams", sink.n, seq)
	}
	if allocs != 0 {
		t.Errorf("Poll delivering %d in-order datagrams allocates %.1f times, want 0", perRun, allocs)
	}
}

// FuzzReliableReceive feeds rudp's per-datagram receive step hostile input
// with no socket behind it. The input is a sequence of datagrams, each a
// byte b followed by b>>2 bytes of datagram from source b&3 (three
// addresses and the invalid zero address). A frame must be delivered exactly when the
// datagram is a well-formed DATA datagram from a valid source whose sequence
// number is its stream's next expected one, and it must be the datagram's
// payload.
func FuzzReliableReceive(f *testing.F) {
	data := func(src byte, connID uint64, seq uint32, payload string) []byte {
		pkt := make([]byte, headerLen, headerLen+len(payload))
		pkt[0] = typeData
		binary.BigEndian.PutUint64(pkt[1:], connID)
		binary.BigEndian.PutUint32(pkt[9:], seq)
		pkt = append(pkt, payload...)
		return append([]byte{byte(len(pkt))<<2 | src}, pkt...)
	}
	f.Add(bytes.Join([][]byte{
		data(0, 1, 0, "a"), data(0, 1, 1, "b"), data(0, 1, 1, "dup"), data(0, 1, 3, "gap"),
		data(1, 1, 0, "other source"), data(0, 2, 0, "other conn"), data(2, 1, 2, "no source"),
	}, nil))
	ack := data(0, 1, 0, "")
	ack[1] = typeAck
	f.Add(append(ack, 5<<2, typeData, 0, 0, 0, 0))
	srcs := [4]netip.AddrPort{
		netip.MustParseAddrPort("127.0.0.1:9"),
		netip.MustParseAddrPort("[::1]:9"),
		{},
		netip.MustParseAddrPort("127.0.0.1:10"),
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		sink := &collect{}
		m := newModule[*Reliable](ReliableName, nil)
		m.env.Sink = sink
		acks := make(map[streamKey]uint32)
		expect := make(map[streamKey]uint32)
		for len(in) > 0 {
			b := in[0]
			n := min(int(b>>2), len(in)-1)
			pkt, from := in[1:1+n], srcs[b&3]
			in = in[1+n:]

			before := sink.count()
			wellFormed := len(pkt) >= headerLen && pkt[0] == typeData && from.IsValid()
			var key streamKey
			want := false
			if wellFormed {
				key = streamKey{addr: from, connID: binary.BigEndian.Uint64(pkt[1:])}
				want = binary.BigEndian.Uint32(pkt[9:]) == expect[key]
			}
			if got := m.receive(pkt, from, acks); got != want {
				t.Fatalf("receive(% x from %v) = %v, want %v", pkt, from, got, want)
			}
			if !want {
				if sink.count() != before {
					t.Fatalf("datagram % x from %v delivered a frame", pkt, from)
				}
			} else {
				expect[key]++
				if sink.count() != before+1 || !bytes.Equal(sink.frame(before), pkt[headerLen:]) {
					t.Fatalf("datagram % x: delivered %d frames, want its payload once", pkt, sink.count()-before)
				}
			}
			if wellFormed && acks[key] != expect[key] {
				t.Fatalf("stream %v acks up to %d, want %d", key, acks[key], expect[key])
			}
		}
	})
}
