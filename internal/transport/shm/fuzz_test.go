package shm

import (
	"bytes"
	"encoding/binary"
	"strings"
	"sync/atomic"
	"testing"
)

// FuzzRingDrain treats the entire segment as hostile: the fuzzer controls
// the ring control words and every data byte — exactly the power a buggy or
// malicious same-host peer has over the shared mapping. Drain must
// terminate, never panic or index out of bounds, and never deliver a frame
// longer than the message limit.
func FuzzRingDrain(f *testing.F) {
	const ringSize = 4096
	seed := func(head, tail uint64, data []byte) []byte {
		mem := make([]byte, segSizeFor(ringSize))
		initSegment(mem, ringSize, 1)
		binary.LittleEndian.PutUint64(mem[ring0Ctl:], head)
		binary.LittleEndian.PutUint64(mem[ring0Ctl+ctlStride:], tail)
		copy(mem[hdrSize:], data)
		return mem
	}
	// A legitimate record, a wrap marker mid-stream, and pathological
	// cursor values.
	f.Add(seed(8, 0, []byte{4, 0, 0, 0, 'a', 'b', 'c', 'd'}))
	f.Add(seed(12, 4, []byte{0xFF, 0xFF, 0xFF, 0xFF, 2, 0, 0, 0, 'x', 'y', 0, 0}))
	f.Add(seed(^uint64(0), 0, nil))
	f.Add(seed(1, 3, []byte{1}))
	f.Add(seed(ringSize+8, 0, nil))

	f.Fuzz(func(t *testing.T, mem []byte) {
		if len(mem) != segSizeFor(ringSize) {
			t.Skip()
		}
		rings := ringsOf(mem, ringSize)
		maxMsg := maxMessageFor(ringSize)
		for i := range rings {
			sink := &boundedSink{t: t, maxMsg: maxMsg}
			// Bounded and unbounded drains must both be safe; errors
			// (corruption) are an expected outcome, panics are not.
			_, _ = rings[i].drain(sink, maxMsg, 16)
			_, _ = rings[i].drain(sink, maxMsg, 0)
		}
		// The producer must survive hostile cursors too.
		_, _ = rings[0].tryPush([]byte("probe"))
	})
}

// FuzzRingPushDrain drives one producer and one consumer through a 256 KiB
// ring — large enough to rewind — with the fuzzer choosing the interleaving
// of pushes and drains and every record size. Each op byte is:
//
//	0b00xxxxxx  push a frame of xxxxxx bytes
//	0b01xxxxxx  push a frame of the next two bytes' size (0..65535, so
//	            records on both sides of minRingSize)
//	0b10xxxxxx  push a frame of the next three bytes' size, mod maxMsg+1
//	0b11xxxxxx  drain at most xxxxxx&15 frames (0 = all)
//
// Checked against a FIFO model: frames arrive in order with their bytes; a
// push onto an empty ring never fails; an empty ring accepts a maxMsg frame
// wherever head points; and while every push finds the ring empty with a
// record of at most minRingSize, no byte of the region past minRingSize plus
// the largest such record is ever written.
func FuzzRingPushDrain(f *testing.F) {
	const (
		ringSize = 256 << 10
		sentinel = 0xA5
	)
	maxMsg := maxMessageFor(ringSize)
	echo := func(size, n int) []byte { // n push/drain pairs of one size
		var ops []byte
		for i := 0; i < n; i++ {
			ops = append(ops, 0x40, byte(size), byte(size>>8), 0xC0)
		}
		return ops
	}
	f.Add(echo(20000, 8))
	f.Add(echo(minRingSize-4, 4)) // need == minRingSize: rewinds
	f.Add(echo(minRingSize-3, 4)) // need > minRingSize: never rewinds
	f.Add(append(echo(1000, 70), 0x3F, 0x3F, 0x40, 0xFF, 0xFF, 0xC1, 0xC0))
	f.Add([]byte{0x80, 0xF8, 0xFF, 0x01, 0x80, 0xF8, 0xFF, 0x01, 0xC1, 0xC0})

	// Frame k is pat[k%251:][:size]: consecutive frames differ, and no
	// frame byte equals the sentinel the unwritten region is filled with.
	pat := make([]byte, maxMsg+251)
	for i := range pat {
		if pat[i] = byte(i % 251); pat[i] == sentinel {
			pat[i] = 251
		}
	}
	frameOf := func(k, size int) []byte { return pat[k%251:][:size] }
	blank := bytes.Repeat([]byte{sentinel}, ringSize)
	mem := make([]byte, segSizeFor(ringSize))
	probeData := make([]byte, ringSize)
	f.Fuzz(func(t *testing.T, ops []byte) {
		clear(mem[:hdrSize])
		initSegment(mem, ringSize, 1)
		rings := ringsOf(mem, ringSize)
		r := &rings[0]
		copy(r.data, blank)
		var queue []int // sizes of pushed, undelivered frames
		pushed, delivered := 0, 0
		sink := sinkFunc(func(got []byte) {
			if len(queue) == 0 {
				t.Fatalf("drain delivered frame %d, none pushed", delivered)
			}
			if !bytes.Equal(got, frameOf(delivered, queue[0])) {
				t.Fatalf("frame %d: %d bytes, want %d, or corrupted", delivered, len(got), queue[0])
			}
			queue = queue[1:]
			delivered++
		})
		// probeMax pushes a maxMsg frame through a copy of the ring's
		// cursors, over scratch data, so the real ring is left untouched.
		probeMax := func() {
			var head, tail atomic.Uint64
			head.Store(r.head.Load())
			tail.Store(r.tail.Load())
			probe := ring{ringHdr: ringHdr{head: &head, tail: &tail}, data: probeData, size: r.size, mask: r.mask}
			if ok, err := probe.tryPush(pat[:maxMsg]); !ok || err != nil {
				t.Fatalf("empty ring at %d rejected a %d-byte frame (ok=%v err=%v)",
					r.head.Load()&r.mask, maxMsg, ok, err)
			}
		}
		steady, maxNeed := true, 0
		checkBound := func() {
			bound := minRingSize + maxNeed
			if !bytes.Equal(r.data[bound:], blank[bound:]) {
				t.Fatalf("bytes past the steady echo bound %d were written", bound)
			}
		}
		probeMax()
		for i := 0; i < len(ops); i++ {
			op := ops[i]
			size := int(op & 0x3F)
			switch op >> 6 {
			case 1:
				if i+2 >= len(ops) {
					return
				}
				size = int(binary.LittleEndian.Uint16(ops[i+1:]))
				i += 2
			case 2:
				if i+3 >= len(ops) {
					return
				}
				size = int(uint32(ops[i+1])|uint32(ops[i+2])<<8|uint32(ops[i+3])<<16) % (maxMsg + 1)
				i += 3
			case 3:
				if _, err := r.drain(sink, maxMsg, int(op&15)); err != nil {
					t.Fatalf("drain: %v", err)
				}
				if len(queue) == 0 {
					probeMax()
				}
				continue
			}
			need := recordAlign + align4(size)
			empty := len(queue) == 0
			if steady && (!empty || need > minRingSize) {
				checkBound()
				steady = false
			}
			ok, err := r.tryPush(frameOf(pushed, size))
			if err != nil {
				t.Fatalf("push: %v", err)
			}
			if !ok {
				if empty {
					t.Fatalf("empty ring at %d rejected a %d-byte frame", r.head.Load()&r.mask, size)
				}
				continue
			}
			queue = append(queue, size)
			pushed++
			if steady {
				maxNeed = max(maxNeed, need)
			}
		}
		if _, err := r.drain(sink, maxMsg, 0); err != nil {
			t.Fatalf("final drain: %v", err)
		}
		if len(queue) != 0 {
			t.Fatalf("%d frames never delivered", len(queue))
		}
		if steady {
			checkBound()
		}
	})
}

type sinkFunc func([]byte)

func (f sinkFunc) Deliver(frame []byte) { f(frame) }

type boundedSink struct {
	t      *testing.T
	maxMsg int
}

func (s *boundedSink) Deliver(frame []byte) {
	if len(frame) > s.maxMsg {
		s.t.Fatalf("drain delivered %d bytes past the %d limit", len(frame), s.maxMsg)
	}
}

// FuzzParseAttach feeds arbitrary control-FIFO lines to the attach parser.
// Anything may be written to the FIFO by any same-host process; accepted
// messages must never name a file outside the segment directory.
func FuzzParseAttach(f *testing.F) {
	f.Add("A seg-1 7 \"/dev/shm/nexus-shm-abc/ctl.fifo\"")
	f.Add("")
	f.Add("A ../../etc/passwd 1 \"x\"")
	f.Add("A seg 18446744073709551615 \"\"")
	f.Add("A seg 1 \"\\x00\"")
	f.Add(strings.Repeat("A", 5000))
	f.Fuzz(func(t *testing.T, line string) {
		msg, ok := parseAttach(line)
		if !ok {
			return
		}
		if msg.file == "" || strings.ContainsAny(msg.file, "/\\") ||
			msg.file == "." || msg.file == ".." {
			t.Fatalf("parser accepted escaping file name %q", msg.file)
		}
		// Round-trip stability: re-rendering must parse to the same message.
		again, ok := parseAttach(strings.TrimSuffix(formatAttach(msg.file, msg.ctx, msg.ctl), "\n"))
		if !ok || again != msg {
			t.Fatalf("attach message not stable: %+v vs %+v", msg, again)
		}
	})
}
