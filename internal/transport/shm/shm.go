// Package shm implements the same-host shared-memory communication module:
// contexts on one machine — same process or not — exchange frames through
// mmap'd file segments holding a pair of lock-free single-producer /
// single-consumer byte rings, one per direction.
//
// It is the rung of the multimethod ladder between inproc (same process) and
// tcp (any host): the paper's selection rule picks the fastest mechanism each
// link supports, and within a node that mechanism is shared memory. A frame
// travels as one memcpy into the ring plus one zero-copy delivery out of it;
// no system call touches the steady-state data path.
//
// # Rendezvous
//
// Each module instance owns a segment directory (on tmpfs — /dev/shm — when
// available) containing a control FIFO. The descriptor advertises the
// directory, the FIFO path, and the host identity; Applicable accepts only
// descriptors from the same host whose FIFO still exists, which is what makes
// selection locality-aware without any core changes. Dial creates a segment
// file in the remote's directory, maps it, and announces it with one attach
// line written to the FIFO; the receiver maps the segment on its next poll
// (or readiness edge) and unlinks the backing file immediately, so a crashed
// peer can never leak a visible segment that was successfully attached.
//
// # Wakeup: bounded spin, then park
//
// The receive hot path is polling — the core's reactive hot windows spin the
// module while traffic flows, and every poll is a few loads per ring. At the
// transport.ParkPolls-th consecutive empty poll, reactor-attached or not, the
// module arms a per-ring doorbell flag in the shared header and parks: from
// then on a producer that publishes a frame and observes the armed flag
// clears it and writes one byte to the consumer's FIFO. The FIFO's read end is the fd the module registers with
// the readiness reactor (transport.Reactive), so a parked context costs zero
// CPU until the kernel reports the doorbell. The arm/publish race is resolved
// by sequentially consistent atomics: the consumer re-checks the rings after
// arming, the producer checks the flag after publishing — one of the two must
// observe the other.
//
// # Crash safety
//
// Segment files live only between create and attach; attached segments are
// anonymous (unlinked) shared pages that die with their last mapping. A
// module Init sweeps sibling segment directories whose control FIFO has no
// reader (ENXIO on a non-blocking write-open) and whose mtime is old — the
// signature of a crashed owner — so stale directories are bounded by one
// sweep interval. Ring metadata read from a shared header is validated
// against the mapping's actual size before use, and a corrupt record length
// poisons only that segment, never the module.
package shm

import (
	"time"

	"nexus/internal/transport"
)

// Name is the method name used in descriptors and resource strings.
const Name = "shm"

func init() {
	transport.Register(Name, []transport.Param{
		{Key: "ring", Default: DefaultRingSize, Min: minRingSize, Max: maxRingSize, Doc: "per-direction ring bytes, rounded to a power of two (the message limit is ring/2-8)"},
		{Key: "send_timeout", Default: 5 * time.Second, Min: 0, Doc: "bound on a Send blocked by a full ring"},
		{Key: "dir", Default: "", Doc: "base directory for the segment directory (empty: /dev/shm when present, else the OS temp dir)"},
		{Key: "stale_after", Default: 10 * time.Minute, Min: 0, Doc: "age before the Init sweep removes an orphaned sibling segment directory"},
	}, func(v transport.Values) (transport.Module, error) { return New(v), nil })
}

// DefaultRingSize is the per-direction ring capacity. Two rings plus one
// header page make a segment just over 8 MiB — tmpfs pages that are only
// touched (and only become resident) as frames actually wrap through them.
const DefaultRingSize = 4 << 20

// recordAlign is the ring record granularity: lengths and offsets are
// 4-byte aligned so a record header is always a single aligned load.
const recordAlign = 4

// maxMessageFor bounds one frame for a given ring size: a frame plus its
// wrap padding must always fit in an empty ring (worst case pad < record
// size, so record ≤ ring/2 guarantees progress), minus the record header.
func maxMessageFor(ringSize int) int { return ringSize/2 - 8 }

// Descriptor attribute names.
const (
	// attrHost is the machine identity; Applicable requires an exact match.
	attrHost = "host"
	// attrDir is the receiver's segment directory.
	attrDir = "dir"
	// attrCtl is the receiver's control FIFO (attach messages + doorbells).
	attrCtl = "ctl"
)
