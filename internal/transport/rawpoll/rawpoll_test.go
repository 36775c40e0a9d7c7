package rawpoll

import (
	"errors"
	"io"
	"net"
	"net/netip"
	"testing"
	"time"
)

func tcpPair(t *testing.T) (client, server *net.TCPConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			t.Error(err)
			close(done)
			return
		}
		done <- c
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	s, ok := <-done
	if !ok {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { c.Close(); s.Close() })
	return c.(*net.TCPConn), s.(*net.TCPConn)
}

func TestReadAvailableData(t *testing.T) {
	client, server := tcpPair(t)
	rd, err := NewReader(server)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	deadline := time.Now().Add(2 * time.Second)
	for {
		n, err := rd.Read(buf)
		if n > 0 {
			if string(buf[:n]) != "ping" {
				t.Fatalf("read %q", buf[:n])
			}
			return
		}
		if !errors.Is(err, ErrWouldBlock) {
			t.Fatalf("unexpected error: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("data never became readable")
		}
	}
}

func TestReadEmptyWouldBlock(t *testing.T) {
	_, server := tcpPair(t)
	rd, err := NewReader(server)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := rd.Read(make([]byte, 16)); n != 0 || !errors.Is(err, ErrWouldBlock) {
		t.Errorf("Read on empty socket = %d, %v", n, err)
	}
}

func TestReadEOF(t *testing.T) {
	client, server := tcpPair(t)
	rd, err := NewReader(server)
	if err != nil {
		t.Fatal(err)
	}
	client.Close()
	buf := make([]byte, 16)
	deadline := time.Now().Add(2 * time.Second)
	for {
		n, err := rd.Read(buf)
		if err == io.EOF {
			return
		}
		if n == 0 && !errors.Is(err, ErrWouldBlock) {
			t.Fatalf("unexpected: n=%d err=%v", n, err)
		}
		if time.Now().After(deadline) {
			t.Fatal("EOF never observed")
		}
	}
}

func udpPair(t *testing.T) (sender *net.UDPConn, receiver *net.UDPConn) {
	t.Helper()
	r, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	s, err := net.DialUDP("udp", nil, r.LocalAddr().(*net.UDPAddr))
	if err != nil {
		r.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close(); r.Close() })
	return s, r
}

func TestReadFromDatagram(t *testing.T) {
	sender, receiver := udpPair(t)
	rd, err := NewReader(receiver)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sender.Write([]byte("dgram")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	deadline := time.Now().Add(2 * time.Second)
	for {
		n, from, err := rd.ReadFrom(buf)
		if n > 0 {
			if string(buf[:n]) != "dgram" {
				t.Fatalf("payload %q", buf[:n])
			}
			if from == nil {
				t.Fatal("no source address")
			}
			want := sender.LocalAddr().(*net.UDPAddr)
			if from.Port != want.Port {
				t.Fatalf("source %v, want port %d", from, want.Port)
			}
			return
		}
		if !errors.Is(err, ErrWouldBlock) {
			t.Fatalf("unexpected error: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("datagram never became readable")
		}
	}
}

// TestBatchReaderAddr checks that a batched receive reports each datagram's
// source as the sender's address and port.
func TestBatchReaderAddr(t *testing.T) {
	sender, receiver := udpPair(t)
	br, err := NewBatchReader(receiver, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sender.Write([]byte("dgram")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	n, err := br.Recv()
	for errors.Is(err, ErrWouldBlock) && time.Now().Before(deadline) {
		n, err = br.Recv()
	}
	if err != nil || n != 1 {
		t.Fatalf("Recv = %d, %v", n, err)
	}
	want := netip.AddrPortFrom(netip.MustParseAddr("127.0.0.1"), uint16(sender.LocalAddr().(*net.UDPAddr).Port))
	if got := br.Addr(0); got != want {
		t.Fatalf("Addr(0) = %v, want %v", got, want)
	}
}

// TestBatchReaderGrowsWithBursts checks that a reader starts with one live
// slot, doubles the live count only when a Recv fills every live slot,
// stops at Slots(), and reports each datagram's bytes and source correctly
// across a growth step.
func TestBatchReaderGrowsWithBursts(t *testing.T) {
	a, receiver := udpPair(t)
	b, err := net.DialUDP("udp", nil, receiver.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	senders := []*net.UDPConn{a, b}
	br, err := NewBatchReader(receiver, 6, 64)
	if err != nil {
		t.Fatal(err)
	}
	if br.live != 1 || br.Slots() != 6 {
		t.Fatalf("new reader: %d live of %d slots, want 1 of 6", br.live, br.Slots())
	}
	seq := 0
	// burst sends n datagrams, alternating senders, and checks that one Recv
	// returns want of them in order and leaves live slots afterwards.
	burst := func(n, want, live int) {
		t.Helper()
		first := seq
		for i := 0; i < n; i++ {
			if _, err := senders[seq%2].Write([]byte{byte(seq), 'g'}); err != nil {
				t.Fatal(err)
			}
			seq++
		}
		deadline := time.Now().Add(2 * time.Second)
		got, err := br.Recv()
		for errors.Is(err, ErrWouldBlock) && time.Now().Before(deadline) {
			got, err = br.Recv()
		}
		if err != nil || got != want {
			t.Fatalf("Recv after %d datagrams = %d, %v; want %d", n, got, err, want)
		}
		if br.live != live {
			t.Fatalf("%d live slots after a batch of %d, want %d", br.live, got, live)
		}
		for i := 0; i < got; i++ {
			k := first + i
			if f := br.Frame(i); len(f) != 2 || f[0] != byte(k) {
				t.Fatalf("slot %d holds %v, want datagram %d", i, f, k)
			}
			from := senders[k%2].LocalAddr().(*net.UDPAddr)
			if want := netip.AddrPortFrom(netip.MustParseAddr("127.0.0.1"), uint16(from.Port)); br.Addr(i) != want {
				t.Fatalf("slot %d from %v, want %v", i, br.Addr(i), want)
			}
		}
		// Drain what this batch left queued; a partial batch never grows.
		for rest := n - got; rest > 0; {
			m, err := br.Recv()
			if err != nil && (!errors.Is(err, ErrWouldBlock) || time.Now().After(deadline)) {
				t.Fatalf("draining %d queued datagrams: %v", rest, err)
			}
			for i := 0; i < m; i++ {
				if f := br.Frame(i); len(f) != 2 || f[0] != byte(seq-rest+i) {
					t.Fatalf("queued slot %d holds %v, want datagram %d", i, f, seq-rest+i)
				}
			}
			rest -= m
		}
	}
	burst(1, 1, 2) // a full batch of one doubles to two
	burst(1, 1, 2) // a half batch does not grow
	burst(3, 2, 4) // full: 2 → 4, and the queued third still arrives
	burst(3, 3, 4) // partial
	burst(8, 4, 6) // full: 4 → 6, capped at Slots()
	burst(6, 6, 6) // full at capacity: no further growth
	if br.live != br.Slots() {
		t.Fatalf("%d live slots, want %d", br.live, br.Slots())
	}
	if _, err := br.Recv(); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("Recv on a drained socket: %v", err)
	}
}

func TestReadFromEmptyWouldBlock(t *testing.T) {
	_, receiver := udpPair(t)
	rd, err := NewReader(receiver)
	if err != nil {
		t.Fatal(err)
	}
	if n, from, err := rd.ReadFrom(make([]byte, 16)); n != 0 || from != nil || !errors.Is(err, ErrWouldBlock) {
		t.Errorf("ReadFrom on empty socket = %d, %v, %v", n, from, err)
	}
}

func TestReadFromPreservesBoundaries(t *testing.T) {
	sender, receiver := udpPair(t)
	rd, err := NewReader(receiver)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := sender.Write([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 64)
	got := 0
	deadline := time.Now().Add(2 * time.Second)
	for got < 3 && time.Now().Before(deadline) {
		n, _, err := rd.ReadFrom(buf)
		if errors.Is(err, ErrWouldBlock) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if n != 1 || buf[0] != byte(got) {
			t.Fatalf("datagram %d: n=%d payload=%v", got, n, buf[:n])
		}
		got++
	}
	if got != 3 {
		t.Fatalf("read %d/3 datagrams", got)
	}
}

func BenchmarkReadWouldBlock(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err == nil {
			defer c.Close()
			select {}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	rd, err := NewReader(c.(*net.TCPConn))
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rd.Read(buf); !errors.Is(err, ErrWouldBlock) {
			b.Fatal(err)
		}
	}
}

// TestWouldBlockReadAllocs pins the cost of probing an empty socket — the
// common case for a polled method — at zero allocations for each of Read,
// ReadFrom and BatchReader.Recv.
func TestWouldBlockReadAllocs(t *testing.T) {
	_, server := tcpPair(t)
	rd, err := NewReader(server)
	if err != nil {
		t.Fatal(err)
	}
	_, receiver := udpPair(t)
	urd, err := NewReader(receiver)
	if err != nil {
		t.Fatal(err)
	}
	br, err := NewBatchReader(receiver, 16, 2048)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	probes := []struct {
		name string
		read func() error
	}{
		{"Read", func() error { _, err := rd.Read(buf); return err }},
		{"ReadFrom", func() error { _, _, err := urd.ReadFrom(buf); return err }},
		{"Recv", func() error { _, err := br.Recv(); return err }},
	}
	for _, p := range probes {
		var perr error
		allocs := testing.AllocsPerRun(100, func() {
			if err := p.read(); !errors.Is(err, ErrWouldBlock) {
				perr = err
			}
		})
		if perr != nil {
			t.Fatalf("%s on an empty socket: %v", p.name, perr)
		}
		if allocs != 0 {
			t.Errorf("%s on an empty socket allocates %.1f times per call, want 0", p.name, allocs)
		}
	}
}
