// Package bufpool provides the size-classed byte-slice pool behind the RSR
// fast path.
//
// Every hop of a remote service request used to allocate: the sender encoded
// each frame into a fresh slice, queueing transports copied into fresh
// slices, and the TCP module materialized every inbound frame with a fresh
// make. This pool gives all of those sites recycled storage so the
// steady-state send/receive path performs no per-message allocation at all.
//
// The pool stores raw array pointers rather than slice headers: a slice (or
// *[]byte) placed into a sync.Pool forces a fresh heap allocation for the
// header on every Put, which would put an allocation right back on the path
// the pool exists to clear. unsafe.Pointer is pointer-shaped, so boxing it in
// the pool's interface value is allocation-free, and the slice header is
// rebuilt on Get with unsafe.Slice. Every pooled array is at least as large
// as its size class, so reconstruction never over-extends an allocation.
//
// Ownership rules (see DESIGN.md "Fast-path allocation budget"):
//
//   - Get returns a slice of exactly the requested length whose contents are
//     arbitrary; the caller owns it until it calls Put.
//   - Put recycles a slice. The caller must not touch the slice afterwards.
//     Putting a slice that did not come from Get is allowed (it joins the
//     largest class its capacity covers); never Putting a slice is also
//     allowed — the garbage collector reclaims it as usual.
//   - A slice must be Put at most once. Double-Put hands the same storage to
//     two future Get callers.
package bufpool

import (
	"math/bits"
	"sync"
	"unsafe"
)

// Size classes. Up to 1 MiB they are the powers of two from 1<<minShift to
// 1<<maxShift. Above 1 MiB every doubling has four classes, 2^k·5/4, 6/4, 7/4
// and 2^(k+1), so a large slab wastes at most a fifth of itself instead of
// up to half. The quarter steps stop at maxSize (20 MiB), the first of them
// that holds the largest frame a context builds:
// frag.DefaultMaxMessage of payload plus the largest wire header
// (TestTopClassHoldsDefaultFrame). On the bulk_tcp workload (256 KiB to
// 4 MiB messages over tcp, 2-vCPU VM) peak RSS reads 38–40 MB with these
// classes, against 53–59 MB when every frame past 1 MiB was a fresh make;
// power-of-two classes up to 8 MiB, which put a 4 MiB frame in an 8 MiB
// slab, read 86–90 MB. Requests above maxSize — a frame no context builds,
// though a peer may announce one up to wire.MaxFrameLen — are served by plain
// make and dropped on Put.
const (
	minShift = 6  // 64 B
	maxShift = 20 // 1 MiB, the largest power-of-two class
	nPow2    = maxShift - minShift + 1
	nQuarter = 17 // 1.25 MiB … 20 MiB
	nClasses = nPow2 + nQuarter
	maxSize  = 1 << (maxShift + (nQuarter-1)/4) / 4 * (5 + (nQuarter-1)%4)
)

var classes [nClasses]sync.Pool

// classFor returns the index of the smallest class able to hold n bytes
// (n must be ≤ maxSize).
func classFor(n int) int {
	if n <= 1<<minShift {
		return 0
	}
	if n <= 1<<maxShift {
		return bits.Len(uint(n-1)) - minShift
	}
	// 2^k < n ≤ 2^(k+1): the class is the quarter step of 2^k covering n.
	k := bits.Len(uint(n-1)) - 1
	return nPow2 + (k-maxShift)*4 + (n-1-(1<<k))>>(k-2)
}

// classSize returns class c's capacity in bytes.
func classSize(c int) int {
	if c < nPow2 {
		return 1 << (minShift + c)
	}
	j := c - nPow2
	return 1 << (maxShift + j/4) / 4 * (5 + j%4)
}

// Get returns a slice of length n backed by pooled storage (capacity is the
// full size class, at least n). The contents are arbitrary.
func Get(n int) []byte {
	if n > maxSize {
		return make([]byte, n)
	}
	c := classFor(n)
	size := classSize(c)
	p, _ := classes[c].Get().(unsafe.Pointer)
	if p == nil {
		return make([]byte, n, size)
	}
	return unsafe.Slice((*byte)(p), size)[:n]
}

// Put recycles a slice obtained from Get (or any slice the caller owns
// outright). Slices with less capacity than the smallest class are dropped,
// as are slices above the largest class.
func Put(p []byte) {
	n := cap(p)
	if n < 1<<minShift || n > maxSize {
		return
	}
	classes[coveredClass(n)].Put(unsafe.Pointer(&p[:n][0]))
}

// coveredClass returns the largest class no bigger than n bytes
// (1<<minShift ≤ n ≤ maxSize). Put files a slice there, so a future Get never
// receives less capacity than its class promises.
func coveredClass(n int) int {
	c := bits.Len(uint(n)) - 1 - minShift
	if c < nPow2-1 {
		return c
	}
	// 2^k ≤ n < 2^(k+1), k ≥ maxShift: count the quarter steps above 2^k.
	k := c + minShift
	return nPow2 - 1 + (k-maxShift)*4 + (n-(1<<k))>>(k-2)
}
