package tcp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"nexus/internal/wire"
)

// streamPair returns a raw client socket and the inConn reading its accepted
// peer, with no module around them: the inConn has a read buffer of its own.
func streamPair(t testing.TB) (net.Conn, *inConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server, ok := <-accepted
	if !ok {
		client.Close()
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, &inConn{c: server, rb: &readBuf{}}
}

// encodeStream length-prefixes each frame, as outConn does.
func encodeStream(frames ...[]byte) []byte {
	var out []byte
	for _, f := range frames {
		out = binary.BigEndian.AppendUint32(out, uint32(len(f)))
		out = append(out, f...)
	}
	return out
}

func pattern(n, seed int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7 + seed)
	}
	return p
}

// TestStreamFramesLandIntact sends frames on both sides of every reader
// boundary — 1 B, one that exactly fills the 64 KiB scratch with its prefix,
// one byte more, just past bufpool's 1 MiB class, and 4 MiB — through writes
// of 1 B, 3 B, an odd size and 1 MiB, so prefixes, small frames and the start
// of large frames arrive split at arbitrary points. Every frame must arrive in
// order and byte-identical. (The small writes cover the first 4 KiB of each
// frame; the rest of a frame goes in 1 MiB writes to keep the test fast.)
func TestStreamFramesLandIntact(t *testing.T) {
	const scratch = 64 << 10
	var want [][]byte
	for i, n := range []int{1, scratch - 4, scratch - 3, 1<<20 + 1, 4 << 20} {
		want = append(want, pattern(n, i))
	}
	for _, w := range []int{1, 3, 4099, 1 << 20} {
		t.Run(fmt.Sprintf("write=%d", w), func(t *testing.T) {
			sink := &collect{}
			recv, d := initModule(t, nil, 1, sink)
			c, err := net.Dial("tcp", d.Attr("addr"))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			wrote := make(chan error, 1)
			go func() {
				for _, f := range want {
					frame := encodeStream(f)
					head := min(len(frame), 4<<10)
					for off := 0; off < len(frame); {
						step := 1 << 20
						if off < head {
							step = min(w, head-off)
						}
						n, err := c.Write(frame[off:min(off+step, len(frame))])
						if err != nil {
							wrote <- err
							return
						}
						off += n
					}
				}
				wrote <- nil
			}()
			for deadline := time.Now().Add(20 * time.Second); len(sink.snapshot()) < len(want); {
				if n, err := recv.Poll(); err != nil {
					t.Fatal(err)
				} else if n == 0 {
					runtime.Gosched()
				}
				if time.Now().After(deadline) {
					t.Fatalf("%d of %d frames delivered", len(sink.snapshot()), len(want))
				}
			}
			if err := <-wrote; err != nil {
				t.Fatal(err)
			}
			for i, got := range sink.snapshot() {
				if !bytes.Equal(got, want[i]) {
					t.Fatalf("frame %d: %d bytes, want %d, contents differ", i, len(got), len(want[i]))
				}
			}
		})
	}
}

// countSink counts frames and bytes and keeps the last frame's first bytes,
// so it allocates nothing.
type countSink struct {
	frames, bytes int
	head          [8]byte
}

func (s *countSink) Deliver(f []byte) {
	s.frames++
	s.bytes += len(f)
	s.head = [8]byte{}
	copy(s.head[:], f)
}

// TestOversizePrefixPoisonsBeforeAllocating: a length prefix above
// wire.MaxFrameLen() kills the connection at the prefix, after the frames
// ahead of it are delivered and before any landing buffer is taken.
func TestOversizePrefixPoisonsBeforeAllocating(t *testing.T) {
	client, ic := streamPair(t)
	sink := &countSink{}
	// Warm up: the first poll builds the reader and scratch.
	if _, err := client.Write(encodeStream([]byte("warm"))); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); sink.frames < 1; ic.poll(sink) {
		if time.Now().After(deadline) {
			t.Fatal("warm-up frame not delivered")
		}
	}
	bad := binary.BigEndian.AppendUint32(encodeStream([]byte("ahead")), uint32(wire.MaxFrameLen()+1))
	if _, err := client.Write(append(bad, pattern(1<<10, 0)...)); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for deadline := time.Now().Add(5 * time.Second); !ic.dead(); ic.poll(sink) {
		if time.Now().After(deadline) {
			t.Fatal("oversize prefix did not poison the connection")
		}
	}
	runtime.ReadMemStats(&after)
	if sink.frames != 2 || string(sink.head[:5]) != "ahead" {
		t.Fatalf("delivered %d frames, the last starting %q; want the warm-up frame and the frame ahead of the bad prefix",
			sink.frames, sink.head[:])
	}
	if ic.frame != nil {
		t.Fatalf("a %d B landing buffer was taken for a rejected prefix", len(ic.frame))
	}
	if mallocs := after.Mallocs - before.Mallocs; !raceEnabled && mallocs != 0 {
		t.Errorf("rejecting the prefix allocated %d times, want 0", mallocs)
	}
}

// TestLargeFrameReceiveAllocs pins the receive of a 4 MiB frame, after the
// connection's first, at zero allocations: its landing buffer comes from
// the pool and the reads go straight into it.
func TestLargeFrameReceiveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	client, ic := streamPair(t)
	frame := encodeStream(pattern(4<<20, 1))
	send := make(chan struct{})
	wrote := make(chan error, 1)
	go func() {
		for range send {
			_, err := client.Write(frame)
			wrote <- err
		}
	}()
	defer close(send)
	sink := &countSink{}
	var perr error
	receive := func() {
		send <- struct{}{}
		want := sink.frames + 1
		for deadline := time.Now().Add(10 * time.Second); sink.frames < want; {
			if n, _ := ic.poll(sink); n == 0 {
				runtime.Gosched()
			}
			if time.Now().After(deadline) || ic.dead() {
				perr = errors.New("frame not delivered")
				return
			}
		}
		if err := <-wrote; err != nil {
			perr = err
		}
	}
	receive() // the connection's first large frame builds reader, scratch and slab
	allocs := testing.AllocsPerRun(5, receive)
	if perr != nil {
		t.Fatal(perr)
	}
	if sink.bytes != sink.frames*(4<<20) {
		t.Fatalf("received %d bytes in %d frames", sink.bytes, sink.frames)
	}
	if allocs != 0 {
		t.Errorf("receiving a 4 MiB frame allocates %.1f times, want 0", allocs)
	}
}

// FuzzStreamReader feeds an arbitrary byte stream through the poll-mode
// reader, written in chunks whose sizes come from cuts, each chunk consumed
// before the next is written, with a read buffer of 4–67 bytes so that the
// landing-buffer path runs on small inputs. The oracle is wire.ReadFrame over
// the same bytes: the reader delivers exactly the frames it returns, and the
// connection is poisoned exactly when it returns ErrOversize.
func FuzzStreamReader(f *testing.F) {
	f.Add(encodeStream([]byte("a"), []byte("bc")), []byte{0, 2}, uint8(12))
	f.Add(encodeStream(pattern(200, 1), nil, []byte("tail")), []byte{3, 50, 7}, uint8(0))
	f.Add(append(encodeStream([]byte("ok")), 0xff, 0xff, 0xff, 0xff, 1), []byte{1}, uint8(60))
	f.Add(encodeStream(pattern(300, 2))[:150], []byte{9}, uint8(30))
	f.Fuzz(func(t *testing.T, stream, cuts []byte, size uint8) {
		var want [][]byte
		var oerr error
		for r := bytes.NewReader(stream); oerr == nil; {
			var fr []byte
			if fr, oerr = wire.ReadFrame(r); oerr == nil {
				want = append(want, fr)
			}
		}

		client, ic := streamPair(t)
		ic.rb = &readBuf{size: 4 + int(size)%64}
		sink := &collect{}
		consumed := func() int {
			n := ic.have
			for _, f := range sink.snapshot() {
				n += 4 + len(f)
			}
			if ic.frame != nil {
				n += 4 + ic.landed
			}
			return n
		}
		for off, i := 0, 0; off < len(stream) && !ic.dead(); i++ {
			step := len(stream)
			if len(cuts) > 0 {
				step = 1 + int(cuts[i%len(cuts)])
			}
			end := min(off+step, len(stream))
			if _, err := client.Write(stream[off:end]); err != nil {
				t.Fatal(err)
			}
			off = end
			for deadline := time.Now().Add(5 * time.Second); consumed() < off && !ic.dead(); ic.poll(sink) {
				if time.Now().After(deadline) {
					t.Fatalf("reader consumed %d of %d bytes written", consumed(), off)
				}
			}
		}

		got := sink.snapshot()
		if len(got) != len(want) {
			t.Fatalf("reader delivered %d frames, ReadFrame %d (then %v)", len(got), len(want), oerr)
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("frame %d differs from ReadFrame's", i)
			}
		}
		if poisoned := ic.dead(); poisoned != errors.Is(oerr, wire.ErrOversize) {
			t.Fatalf("poisoned = %v, but ReadFrame ended with %v", poisoned, oerr)
		}
	})
}

// TestPartialFrameHoldsReadBuffer: a connection whose turn ends inside a
// small frame keeps the buffer it was lent, without a copy, and the next
// borrower gets another; once the frame completes the connection holds no
// buffer and its own is idle again.
func TestPartialFrameHoldsReadBuffer(t *testing.T) {
	client, ic := streamPair(t)
	_, other := streamPair(t)
	rb := &readBuf{}
	ic.rb, other.rb = rb, rb
	sink := &collect{}
	frame := encodeStream(pattern(100, 3))

	if _, err := client.Write(frame[:50]); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ic.have < 50; ic.poll(sink) {
		if time.Now().After(deadline) || ic.dead() {
			t.Fatalf("read %d of the 50 bytes written", ic.have)
		}
	}
	if ic.buf == nil || rb.idle != nil {
		t.Fatalf("mid-frame: conn holds %d B, module idle %d B; want the conn to hold the only buffer", len(ic.buf), len(rb.idle))
	}
	held := &ic.buf[0]
	other.poll(sink)
	if other.buf != nil || rb.idle == nil || &rb.idle[0] == held {
		t.Fatal("a second conn's idle turn must take a fresh buffer and give it back")
	}

	if _, err := client.Write(frame[50:]); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); len(sink.snapshot()) < 1; ic.poll(sink) {
		if time.Now().After(deadline) || ic.dead() {
			t.Fatal("frame not delivered")
		}
	}
	if got := sink.snapshot()[0]; !bytes.Equal(got, frame[4:]) {
		t.Fatal("frame corrupted across the kept buffer")
	}
	if ic.buf != nil || ic.have != 0 {
		t.Fatalf("frame complete: conn still holds %d B (have %d)", len(ic.buf), ic.have)
	}
	if rb.idle == nil {
		t.Fatal("module holds no idle buffer after every conn gave its back")
	}
}

// FuzzInterleavedStreams runs two poll-mode connections over one shared
// read buffer of 4–67 bytes. Each cut picks the connection that writes next
// (its low bit) and the chunk's size; after a write both connections are
// polled until the writer's bytes are consumed, so buffers are lent, kept
// across partial frames and given back in every order. The oracle is
// wire.ReadFrame over each connection's stream on its own: each connection
// delivers exactly its own frames and is poisoned exactly when ReadFrame
// returns ErrOversize.
func FuzzInterleavedStreams(f *testing.F) {
	f.Add(encodeStream([]byte("a"), pattern(40, 1)), encodeStream(pattern(30, 2), []byte("bc")), []byte{6, 7, 10, 3, 60, 41}, uint8(12))
	f.Add(encodeStream(pattern(200, 3), nil), encodeStream([]byte("tail")), []byte{0, 1, 2, 3, 100}, uint8(30))
	f.Add(append(encodeStream([]byte("ok")), 0xff, 0xff, 0xff, 0xff, 1), encodeStream(pattern(9, 4)), []byte{1, 2}, uint8(60))
	f.Fuzz(func(t *testing.T, a, b, cuts []byte, size uint8) {
		rb := &readBuf{size: 4 + int(size)%64}
		type side struct {
			stream []byte
			want   [][]byte
			oerr   error
			client net.Conn
			ic     *inConn
			sink   *collect
			off    int
		}
		var sides [2]*side
		for i, stream := range [][]byte{a, b} {
			s := &side{stream: stream, sink: &collect{}}
			for r := bytes.NewReader(stream); s.oerr == nil; {
				var fr []byte
				if fr, s.oerr = wire.ReadFrame(r); s.oerr == nil {
					s.want = append(s.want, fr)
				}
			}
			s.client, s.ic = streamPair(t)
			s.ic.rb = rb
			sides[i] = s
		}
		consumed := func(s *side) int {
			n := s.ic.have
			for _, f := range s.sink.snapshot() {
				n += 4 + len(f)
			}
			if s.ic.frame != nil {
				n += 4 + s.ic.landed
			}
			return n
		}
		if len(cuts) == 0 {
			cuts = []byte{0xfe, 0xff}
		}
		done := func(s *side) bool { return s.off == len(s.stream) || s.ic.dead() }
		for i := 0; ; i++ {
			cut := cuts[i%len(cuts)]
			s := sides[cut&1]
			if done(s) {
				s = sides[1-cut&1]
			}
			if done(s) {
				break
			}
			end := min(s.off+1+int(cut>>1), len(s.stream))
			if _, err := s.client.Write(s.stream[s.off:end]); err != nil {
				t.Fatal(err)
			}
			s.off = end
			for deadline := time.Now().Add(5 * time.Second); consumed(s) < s.off && !s.ic.dead(); {
				for _, p := range sides {
					p.ic.poll(p.sink)
				}
				if time.Now().After(deadline) {
					t.Fatalf("reader consumed %d of %d bytes written", consumed(s), s.off)
				}
			}
		}

		for i, s := range sides {
			got := s.sink.snapshot()
			if len(got) != len(s.want) {
				t.Fatalf("conn %d delivered %d frames, ReadFrame %d (then %v)", i, len(got), len(s.want), s.oerr)
			}
			for j := range s.want {
				if !bytes.Equal(got[j], s.want[j]) {
					t.Fatalf("conn %d: frame %d differs from ReadFrame's", i, j)
				}
			}
			if poisoned := s.ic.dead(); poisoned != errors.Is(s.oerr, wire.ErrOversize) {
				t.Fatalf("conn %d: poisoned = %v, but ReadFrame ended with %v", i, poisoned, s.oerr)
			}
		}
	})
}
