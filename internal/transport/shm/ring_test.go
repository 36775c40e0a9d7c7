// White-box tests for the SPSC ring and segment header machinery. These are
// portable: the ring operates on plain byte slices, so the lock-free
// wrap/publish/drain logic and the hostile-header validation are exercised on
// every platform, not just the one with mmap.
package shm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// testRingSize is deliberately tiny so every test crosses the wrap boundary
// many times.
const testRingSize = 4096

func newTestRings(t testing.TB, ringSize uint64) [2]ring {
	if t != nil {
		t.Helper()
	}
	mem := make([]byte, segSizeFor(int(ringSize)))
	initSegment(mem, ringSize, 42)
	return ringsOf(mem, ringSize)
}

// sinkFrames collects drained frames (copying, since drain lends ring memory).
type sinkFrames struct{ frames [][]byte }

func (s *sinkFrames) Deliver(f []byte) {
	s.frames = append(s.frames, append([]byte(nil), f...))
}

func TestRingRoundTripAcrossWraps(t *testing.T) {
	rs := newTestRings(t, testRingSize)
	r := &rs[0]
	maxMsg := maxMessageFor(testRingSize)
	sink := &sinkFrames{}
	var sent [][]byte
	// Mixed sizes, some pushed in bursts, so head lands at every alignment
	// class and wraps dozens of times through a 4 KiB ring.
	sizes := []int{1, 3, 100, 1000, 997, 4, 0, 2040, 64, 511}
	for round := 0; round < 50; round++ {
		burst := 1 + round%3
		for b := 0; b < burst; b++ {
			size := sizes[(round+b)%len(sizes)]
			frame := pattern(byte(round+b), size)
			ok, err := r.tryPush(frame)
			if err != nil {
				t.Fatalf("round %d: tryPush: %v", round, err)
			}
			if !ok {
				t.Fatalf("round %d: ring full with only %d in flight", round, burst)
			}
			sent = append(sent, frame)
		}
		if _, err := r.drain(sink, maxMsg, 0); err != nil {
			t.Fatalf("round %d: drain: %v", round, err)
		}
	}
	if len(sink.frames) != len(sent) {
		t.Fatalf("drained %d frames, sent %d", len(sink.frames), len(sent))
	}
	for i := range sent {
		if !bytes.Equal(sink.frames[i], sent[i]) {
			t.Fatalf("frame %d corrupted: got %d bytes, want %d", i, len(sink.frames[i]), len(sent[i]))
		}
	}
}

// TestRingMaxFrameAlwaysFits is the liveness guarantee behind maxMessageFor:
// an empty ring accepts a maximum-size frame no matter where head points,
// including positions that force a wrap marker plus full padding.
func TestRingMaxFrameAlwaysFits(t *testing.T) {
	maxMsg := maxMessageFor(testRingSize)
	big := pattern(0xAB, maxMsg)
	sink := &sinkFrames{}
	for offset := 0; offset < 64; offset += 4 {
		rs := newTestRings(t, testRingSize)
		r := &rs[0]
		if offset > 0 {
			// Displace head to an arbitrary aligned position.
			if ok, _ := r.tryPush(make([]byte, offset-4+1)); !ok {
				t.Fatal("displacement push failed")
			}
			if _, err := r.drain(sink, maxMsg, 0); err != nil {
				t.Fatal(err)
			}
		}
		ok, err := r.tryPush(big)
		if err != nil || !ok {
			t.Fatalf("offset %d: max frame rejected (ok=%v err=%v)", offset, ok, err)
		}
		sink.frames = nil
		if _, err := r.drain(sink, maxMsg, 0); err != nil {
			t.Fatalf("offset %d: drain: %v", offset, err)
		}
		if len(sink.frames) != 1 || !bytes.Equal(sink.frames[0], big) {
			t.Fatalf("offset %d: max frame corrupted in transit", offset)
		}
	}
}

func TestRingFullThenReclaim(t *testing.T) {
	rs := newTestRings(t, testRingSize)
	r := &rs[0]
	maxMsg := maxMessageFor(testRingSize)
	frame := pattern(0x77, 500)
	pushed := 0
	for {
		ok, err := r.tryPush(frame)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		pushed++
	}
	if pushed == 0 || pushed > testRingSize/500 {
		t.Fatalf("implausible capacity: %d frames of 500 bytes in a %d ring", pushed, testRingSize)
	}
	sink := &sinkFrames{}
	n, err := r.drain(sink, maxMsg, 0)
	if err != nil || n != pushed {
		t.Fatalf("drain = %d, %v; want %d", n, err, pushed)
	}
	if ok, _ := r.tryPush(frame); !ok {
		t.Fatal("ring did not reclaim space after drain")
	}
}

// TestRingDrainBound checks the fallback-mode pass bound: a drain with max=n
// delivers exactly n and leaves the rest intact.
func TestRingDrainBound(t *testing.T) {
	rs := newTestRings(t, testRingSize)
	r := &rs[0]
	maxMsg := maxMessageFor(testRingSize)
	for i := 0; i < 6; i++ {
		if ok, _ := r.tryPush(pattern(byte(i), 100)); !ok {
			t.Fatal("push failed")
		}
	}
	sink := &sinkFrames{}
	if n, err := r.drain(sink, maxMsg, 4); n != 4 || err != nil {
		t.Fatalf("bounded drain = %d, %v; want 4, nil", n, err)
	}
	if n, err := r.drain(sink, maxMsg, 0); n != 2 || err != nil {
		t.Fatalf("second drain = %d, %v; want 2, nil", n, err)
	}
	for i, f := range sink.frames {
		if !bytes.Equal(f, pattern(byte(i), 100)) {
			t.Fatalf("frame %d reordered across bounded drains", i)
		}
	}
}

// TestRingCorruptionDetected scribbles over a published record length and
// over the control words; drain must fail with errRingCorrupt, never panic
// or read out of bounds.
func TestRingCorruptionDetected(t *testing.T) {
	cases := []struct {
		name string
		mut  func(r *ring)
	}{
		{"length beyond published", func(r *ring) {
			binary.LittleEndian.PutUint32(r.data[r.tail.Load()&r.mask:], 3000)
		}},
		{"length beyond maxMsg", func(r *ring) {
			binary.LittleEndian.PutUint32(r.data[r.tail.Load()&r.mask:], uint32(maxMessageFor(testRingSize)+1))
		}},
		{"wrap marker past head", func(r *ring) {
			binary.LittleEndian.PutUint32(r.data[r.tail.Load()&r.mask:], wrapMarker)
		}},
		{"head ran backwards", func(r *ring) { r.head.Store(r.tail.Load() - 4) }},
		{"head unaligned", func(r *ring) { r.head.Store(r.head.Load() + 1) }},
		{"tail unaligned", func(r *ring) { r.tail.Store(r.tail.Load() + 2) }},
		{"head absurdly far", func(r *ring) { r.head.Store(r.tail.Load() + testRingSize + 4) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rs := newTestRings(t, testRingSize)
			r := &rs[0]
			if ok, _ := r.tryPush(pattern(1, 200)); !ok {
				t.Fatal("push failed")
			}
			tc.mut(r)
			if _, err := r.drain(&sinkFrames{}, maxMessageFor(testRingSize), 0); !errors.Is(err, errRingCorrupt) {
				t.Fatalf("drain err = %v, want errRingCorrupt", err)
			}
		})
	}
}

// TestRingProducerDetectsCorruptTail covers the producer side: a consumer
// cursor that ran past head must surface as corruption, not wrap free-space
// arithmetic around.
func TestRingProducerDetectsCorruptTail(t *testing.T) {
	rs := newTestRings(t, testRingSize)
	r := &rs[0]
	r.tail.Store(r.head.Load() + 8) // consumer "ahead" of producer: impossible
	if _, err := r.tryPush([]byte("x")); !errors.Is(err, errRingCorrupt) {
		t.Fatalf("tryPush err = %v, want errRingCorrupt", err)
	}
}

func TestValidateSegment(t *testing.T) {
	good := func() []byte {
		mem := make([]byte, segSizeFor(minRingSize))
		initSegment(mem, minRingSize, 7)
		return mem
	}
	t.Run("fresh header validates", func(t *testing.T) {
		rs, err := validateSegment(good())
		if err != nil || rs != minRingSize {
			t.Fatalf("validateSegment = %d, %v", rs, err)
		}
	})
	cases := []struct {
		name string
		mut  func(mem []byte) []byte
	}{
		{"bad magic", func(m []byte) []byte { m[0] ^= 0xFF; return m }},
		{"future version", func(m []byte) []byte {
			binary.LittleEndian.PutUint32(m[offVersion:], 99)
			return m
		}},
		{"ring size not power of two", func(m []byte) []byte {
			binary.LittleEndian.PutUint64(m[offRingSize:], minRingSize+8)
			return m
		}},
		{"ring size below floor", func(m []byte) []byte {
			binary.LittleEndian.PutUint64(m[offRingSize:], 4096)
			return m
		}},
		{"ring size above ceiling", func(m []byte) []byte {
			binary.LittleEndian.PutUint64(m[offRingSize:], 1<<40)
			return m
		}},
		{"size equation violated", func(m []byte) []byte { return m[:len(m)-4096] }},
		{"truncated below header", func(m []byte) []byte { return m[:100] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := validateSegment(tc.mut(good())); err == nil {
				t.Fatal("corrupt header validated")
			}
		})
	}
}

func TestRingSizeFor(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, minRingSize},
		{-5, minRingSize},
		{minRingSize, minRingSize},
		{minRingSize + 1, minRingSize * 2},
		{DefaultRingSize, DefaultRingSize},
		{DefaultRingSize - 1, DefaultRingSize},
		{maxRingSize + 1, maxRingSize},
	}
	for _, tc := range cases {
		if got := ringSizeFor(tc.in); got != tc.want {
			t.Errorf("ringSizeFor(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestParseAttach(t *testing.T) {
	line := formatAttach("seg-123", 9, "/tmp/nexus-shm-x/ctl.fifo")
	msg, ok := parseAttach(line[:len(line)-1])
	if !ok || msg.file != "seg-123" || msg.ctx != 9 || msg.ctl != "/tmp/nexus-shm-x/ctl.fifo" {
		t.Fatalf("round trip failed: %+v ok=%v", msg, ok)
	}
	bad := []string{
		"",                       // doorbell
		"A",                      // truncated
		"A  1 \"x\"",             // empty file
		"A ../evil 1 \"x\"",      // path escape
		"A a/b 1 \"x\"",          // path separator
		"A x\\y 1 \"x\"",         // windows separator
		"A seg nope \"x\"",       // non-numeric context
		"A seg 1 x",              // unquoted ctl
		"A seg 1",                // missing ctl
		"B seg 1 \"x\"",          // unknown verb
		"A . 1 \"x\"",            // dot
		"A .. 1 \"x\"",           // dotdot
		"A seg 1 \"unterminated", // bad quoting
	}
	for _, l := range bad {
		if _, ok := parseAttach(l); ok {
			t.Errorf("parseAttach(%q) accepted, want rejected", l)
		}
	}
}

// pattern builds a deterministic payload whose first byte identifies it.
func pattern(tag byte, size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(i) ^ tag
	}
	if size > 0 {
		b[0] = tag
	}
	return b
}

// discardSink drops frames; used by the fuzzers too.
type discardSink struct{ n int }

func (d *discardSink) Deliver(f []byte) { d.n++ }
