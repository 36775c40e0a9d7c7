package shm

import (
	"encoding/binary"
	"errors"
	"sync/atomic"
	"unsafe"

	"nexus/internal/transport"
)

// The ring is a lock-free single-producer / single-consumer byte queue over a
// shared memory region. head and tail are monotonically increasing uint64
// counters (they never wrap in practice: 2^64 bytes at memory speed is
// centuries); the byte position of a counter is counter % size, with size a
// power of two. The producer owns head, the consumer owns tail; both are
// read with sequentially consistent atomics so the doorbell arm/publish race
// resolves (see the package comment).
//
// A record is [len uint32][payload, padded to 4 bytes]. When a record does
// not fit contiguously before the end of the region the producer writes the
// wrap marker ^uint32(0) and skips to offset 0; all lengths and offsets stay
// 4-aligned, so the marker itself always fits. maxMessageFor keeps one
// record ≤ half the ring, so an empty ring always accepts a maximum frame
// even in the worst wrap case — the producer cannot deadlock against itself.
//
// The producer also wraps early, with the same marker, when it finds the
// ring empty past minRingSize and the record is at most minRingSize: a
// request/reply exchange then keeps reusing the first minRingSize plus one
// record of the region, and the pages beyond are never touched. The
// consumer cannot tell an early wrap from a forced one.

// wrapMarker in a length slot means "rest of the region is padding".
const wrapMarker = ^uint32(0)

// errRingCorrupt reports shared-memory contents that violate the ring
// invariants — a crashed or hostile peer. The segment is poisoned; the
// module survives.
var errRingCorrupt = errors.New("shm: ring corrupt")

// ringHdr is the set of control words for one direction, each on its own
// cache line in the segment header.
type ringHdr struct {
	head   *atomic.Uint64 // producer cursor (bytes ever published)
	tail   *atomic.Uint64 // consumer cursor (bytes ever consumed)
	armed  *atomic.Uint64 // 1 = consumer parked, wants a doorbell
	closed *atomic.Uint64 // 1 = direction shut down (either side may set)
}

// ring is one direction of a segment: control words plus the data region.
type ring struct {
	ringHdr
	data []byte
	size uint64
	mask uint64 // size-1 (size is a power of two)
}

func align4(n int) int { return (n + recordAlign - 1) &^ (recordAlign - 1) }

// word interprets 8 bytes of the mapping at off as an atomic counter. The
// mapping is page-aligned and off is 8-aligned, so the cast is legal.
func word(mem []byte, off int) *atomic.Uint64 {
	return (*atomic.Uint64)(unsafe.Pointer(&mem[off]))
}

// tryPush publishes one frame, returning false when the ring lacks space.
// Single producer only; callers serialize.
func (r *ring) tryPush(frame []byte) (bool, error) {
	need := uint64(recordAlign + align4(len(frame)))
	h := r.head.Load()
	t := r.tail.Load()
	used := h - t
	if used > r.size || h&3 != 0 {
		return false, errRingCorrupt // consumer cursor ran past us
	}
	pos := h & r.mask
	rem := r.size - pos
	// An early wrap has need <= minRingSize <= pos, so marker plus record
	// fit in the empty ring.
	wrap := rem < need || (used == 0 && pos >= minRingSize && need <= minRingSize)
	total := need
	if wrap {
		total += rem // wrap marker consumes the remainder
	}
	if r.size-used < total {
		return false, nil
	}
	if wrap {
		binary.LittleEndian.PutUint32(r.data[pos:], wrapMarker)
		h += rem
		pos = 0
	}
	binary.LittleEndian.PutUint32(r.data[pos:], uint32(len(frame)))
	copy(r.data[pos+recordAlign:], frame)
	r.head.Store(h + need) // publish: everything above happens-before this
	return true, nil
}

// drain delivers every published record to sink, advancing tail per record
// so the producer reclaims space as we go. Frames are delivered zero-copy
// straight out of the shared region — the sink borrows them for the call,
// exactly the transport.Sink contract. max bounds one pass (0 = unbounded).
//
// Every length read from shared memory is validated before use: a peer that
// scribbles on the segment can corrupt its own link, never this process.
func (r *ring) drain(sink transport.Sink, maxMsg int, max int) (int, error) {
	delivered := 0
	t := r.tail.Load()
	for {
		h := r.head.Load()
		if h == t {
			return delivered, nil
		}
		if h-t > r.size || t&3 != 0 || h&3 != 0 {
			return delivered, errRingCorrupt
		}
		for t != h {
			pos := t & r.mask
			rem := r.size - pos
			l := binary.LittleEndian.Uint32(r.data[pos:])
			if l == wrapMarker {
				if rem > h-t {
					// A marker that would carry tail past head: hostile.
					// Skipping it would underflow h-t and spin for 2^64
					// bytes — corruption, not padding.
					return delivered, errRingCorrupt
				}
				t += rem
				r.tail.Store(t)
				continue
			}
			need := uint64(recordAlign + align4(int(l)))
			if int(l) > maxMsg || need > rem || need > h-t {
				return delivered, errRingCorrupt
			}
			sink.Deliver(r.data[pos+recordAlign : pos+recordAlign+uint64(l)])
			t += need
			r.tail.Store(t)
			delivered++
			if max > 0 && delivered >= max {
				return delivered, nil
			}
		}
	}
}

// empty reports whether the ring has no published records.
func (r *ring) empty() bool { return r.head.Load() == r.tail.Load() }
