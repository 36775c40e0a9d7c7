// Package transport defines the communication-module interface of the
// multimethod communication architecture.
//
// A communication method (TCP, UDP, intra-process shared memory, a simulated
// MPL fabric, ...) is implemented by a Module. Each context instantiates its
// own module instances; a module advertises how the context can be reached by
// that method with a Descriptor, and descriptors are grouped into an ordered
// Table that travels with every startpoint. The Table is the paper's
// "communication descriptor table": a concise, easily communicated
// representation of information about communication methods, whose order
// encodes selection preference ("fastest first").
//
// In the original Nexus the module interface was a C function table; in Go it
// is simply an interface, with optional capabilities (readiness-driven
// detection, poll-cost hints) discovered by interface assertion.
package transport

import (
	"errors"
	"fmt"
	"maps"
	"strconv"
	"strings"
	"time"
)

// ContextID uniquely identifies a context (an address space / virtual
// processor) within a computation.
type ContextID uint64

// Descriptor describes how a specific context can be reached via a specific
// communication method. Its attributes are method-specific: a TCP descriptor
// carries a listen address, an MPL descriptor a partition name and node
// number, and so on.
//
// Code that builds a descriptor sets Attrs. A table holds its descriptors
// sealed instead: NewTable, Table.Add and DecodeTable keep each one's
// attributes as one immutable canonical block, and leave Attrs nil. Read
// attributes with Attr, whichever form a descriptor is in, and edit them on
// a Clone, which always has an Attrs map. Descriptors are value types and
// are safe to copy.
type Descriptor struct {
	// Method is the module name, e.g. "tcp".
	Method string
	// Context is the context the descriptor reaches.
	Context ContextID
	// Attrs holds method-specific reachability attributes. When it is
	// non-nil it takes precedence over a sealed block.
	Attrs map[string]string
	// attrs is the sealed attribute block (attrs.go), read when Attrs is nil.
	attrs string
}

// Attr returns the named attribute, or "" if absent.
func (d Descriptor) Attr(key string) string {
	if d.Attrs != nil {
		return d.Attrs[key]
	}
	return blockAttr(d.attrs, key)
}

// AttrBlock returns the attribute block Encode writes for the descriptor,
// sealing Attrs if it is set. A sealed descriptor's block is returned as it
// is held, without allocating. Two descriptors with the same method and
// context are Equal exactly when their blocks are, so the block keys a
// descriptor without encoding it.
func (d Descriptor) AttrBlock() string {
	b := d.attrs
	if d.Attrs != nil {
		b = sealAttrs(d.Attrs)
	}
	if b == "" {
		return emptyBlock
	}
	return b
}

// sealed returns d with its attributes sealed into one immutable block, the
// form a table holds.
func (d Descriptor) sealed() Descriptor {
	if d.Attrs != nil {
		d.attrs, d.Attrs = sealAttrs(d.Attrs), nil
	}
	return d
}

// AttrMaxMessage is the descriptor attribute advertising the largest frame
// the method accepts on this link, in bytes. Size-aware selection reads it to
// steer bulk sends toward methods that can carry them natively.
const AttrMaxMessage = "max_message"

// AttrRelay marks a mesh-installed relay route: the value is the decimal
// context id of the next-hop relay. Senders binding such a descriptor stamp
// the wire relay extension (hop budget + loop suppression), and forwarders
// skip route entries pointing back at the hop a frame just arrived from.
const AttrRelay = "relay"

// AttrCost advertises a rough per-message cost for the link in nanoseconds
// (latency plus detection), the static fallback cost-aware mesh routing uses
// for remote-to-remote edges it cannot observe directly.
const AttrCost = "cost_ns"

// Cost reports the descriptor's advertised cost estimate in nanoseconds
// (0 when absent or malformed).
func (d Descriptor) Cost() int64 { return d.count(AttrCost) }

// MaxMessage reports the descriptor's advertised frame-size limit in bytes
// (0 when absent or malformed, meaning "no advertised limit").
func (d Descriptor) MaxMessage() int { return int(d.count(AttrMaxMessage)) }

// count reads a non-negative decimal attribute (0 when absent or malformed).
func (d Descriptor) count(key string) int64 {
	a := d.Attr(key)
	if a == "" {
		return 0
	}
	n, err := strconv.ParseInt(a, 10, 64)
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// Clone returns a deep copy of the descriptor that the caller may edit: its
// Attrs is a fresh map, never nil, whichever form d is in.
func (d Descriptor) Clone() Descriptor {
	c := Descriptor{Method: d.Method, Context: d.Context}
	if d.Attrs != nil {
		c.Attrs = maps.Clone(d.Attrs)
		return c
	}
	n, pairs := blockPairs(d.attrs)
	c.Attrs = make(map[string]string, n)
	for i := 0; i < n; i++ {
		var k, v string
		k, v, pairs = nextPair(pairs)
		c.Attrs[k] = v
	}
	return c
}

// Equal reports whether two descriptors are identical: equal exactly when
// their canonical encodings (Table.Encode) are. A nil and an empty attribute
// map are equal, as they encode alike.
func (d Descriptor) Equal(o Descriptor) bool {
	if d.Method != o.Method || d.Context != o.Context {
		return false
	}
	switch {
	case d.Attrs == nil && o.Attrs == nil:
		return d.attrs == o.attrs
	case d.Attrs == nil:
		return blockMatches(d.attrs, o.Attrs)
	case o.Attrs == nil:
		return blockMatches(o.attrs, d.Attrs)
	default:
		return maps.Equal(d.Attrs, o.Attrs)
	}
}

// String formats the descriptor as method->ctxN followed by its attributes
// in key order, map[k:v ...].
func (d Descriptor) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s->ctx%dmap[", d.Method, d.Context)
	n, pairs := blockPairs(d.AttrBlock())
	for i := 0; i < n; i++ {
		var k, v string
		k, v, pairs = nextPair(pairs)
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(k)
		sb.WriteByte(':')
		sb.WriteString(v)
	}
	sb.WriteByte(']')
	return sb.String()
}

// Sink receives inbound frames delivered by a module. Frames are opaque to
// the transport layer; the core's wire format lives above it.
type Sink interface {
	// Deliver hands one inbound frame to the context. The implementation
	// borrows the slice for the duration of the call and must not retain it
	// afterwards: the delivering module may recycle the frame's storage
	// (bufpool) the moment Deliver returns. Deliver must be safe for
	// concurrent use: local delivers on the sender's goroutine, beside
	// whichever goroutine is running the polling loop.
	Deliver(frame []byte)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(frame []byte)

// Deliver calls f(frame).
func (f SinkFunc) Deliver(frame []byte) { f(frame) }

// Env is the environment a module is initialized with: the identity of its
// context, topology attributes used by applicability rules, configuration
// parameters, and the sink inbound frames are delivered to.
type Env struct {
	// Context is the hosting context's id.
	Context ContextID
	// Process identifies the OS process instance; modules whose methods only
	// work within one process (inproc, local) compare it.
	Process string
	// Partition names the partition the context belongs to; partition-scoped
	// methods (the simulated MPL fabric) compare it.
	Partition string
	// Params holds module configuration (socket buffer sizes, loss rates...).
	Params Params
	// Sink receives inbound frames.
	Sink Sink
}

// Conn is an active connection — the paper's "communication object". A Conn
// is created by selecting a method and dialing its descriptor; it is shared
// among all startpoints in a context that reference the same remote context
// with the same method.
type Conn interface {
	// Send transmits one frame. Send must be safe for concurrent use.
	//
	// Send borrows the frame: the caller may reuse or recycle the slice as
	// soon as Send returns, so an implementation that queues frames
	// (in-process mailboxes, modelled links, retransmission windows) must
	// copy. This is what lets a multicast sender encode one frame and
	// re-address it in place per target, and return its scratch to the
	// pool unconditionally.
	Send(frame []byte) error
	// Method reports the module name that produced this connection.
	Method() string
	// Close releases the connection.
	Close() error
}

// Module implements a communication method. A Module instance belongs to a
// single context and is not shared.
type Module interface {
	// Name reports the method name used in descriptors and resource strings.
	Name() string
	// Init binds the module to its context. The returned descriptor
	// advertises how other contexts reach this context by this method; a nil
	// descriptor (with nil error) means the context cannot receive by this
	// method, but may still dial out.
	Init(env Env) (*Descriptor, error)
	// Applicable reports whether this module can be used to send to remote.
	// It is the method-specific half of the paper's selection rule: Reaches
	// from the module's own descriptor (same partition, same process, ...)
	// plus what only the module can check, such as an address to dial.
	Applicable(remote Descriptor) bool
	// Dial opens a communication object to the remote context.
	Dial(remote Descriptor) (Conn, error)
	// Poll checks once for pending inbound communication, delivering any
	// complete frames to the environment's sink. It returns the number of
	// frames delivered; a module may additionally count inbound progress
	// that completed no frame (a stream mid-way through a large frame) as
	// one unit, so activity-driven pollers keep probing rather than treat
	// the pass as idle. Poll is called from the context's polling loop and
	// need not be safe for concurrent use with itself.
	Poll() (int, error)
	// Close shuts the module down and releases its resources.
	Close() error
}

// Readiness is the registration surface a readiness reactor offers a
// Reactive module: the module adds the file descriptors whose readability
// implies pending inbound work, and removes them as sockets come and go. A
// registered fd MUST be removed before it is closed — descriptor numbers are
// reused by the OS, and a stale registration would attribute a new socket's
// readiness to the old owner.
type Readiness interface {
	Add(fd int) error
	Remove(fd int)
}

// ParkPolls is the one number in the detection contract below: how many
// consecutive empty polls separate "being probed" from "parked".
const ParkPolls = 64

// Reactive is an optional capability: a module whose inbound file descriptors
// can be watched by an OS readiness facility (epoll) instead of being probed
// on every poll pass. AttachReactor registers the module's current inbound
// fds with r, and the module keeps the set current as connections are
// accepted and torn down. Registration is edge-triggered — a consumed edge is
// not re-announced — so the module and whoever polls it share one contract.
// The module's half holds whether or not a reactor is attached; Poll has one
// path:
//
//  1. Bounded and honest. One Poll does at most the module's per-pass bound
//     of work, so a flooding peer cannot pin the polling loop inside one
//     module. It returns > 0 whenever it delivered a frame or stopped for any
//     reason other than running dry: at the bound, or part-way through a
//     frame. It returns 0 only after observing "would block" / empty rings.
//  2. Park. Once Poll has returned 0 ParkPolls times in a row, anything that
//     arrives later raises a readiness edge on a registered fd. A socket
//     satisfies this from its first "would block"; a memory-backed module
//     (shm) arms its doorbells at the ParkPolls-th consecutive empty poll.
//  3. The poller's half. After an edge or a non-zero Poll, keep polling the
//     module until it has returned 0 ParkPolls times in a row; only then may
//     the poller wait for the next edge. A freshly attached module counts as
//     having just raised one.
//
// Poll remains callable at any time (spurious calls find nothing and return
// 0), so a module works identically for a caller that ignores readiness and
// polls on every pass.
//
// AttachReactor returns ErrNotReactive (or any error) when the module cannot
// export pollable fds in its current configuration — for example a wrapper
// whose inner method is memory-backed — and the caller keeps the module on
// the portable polling path. DetachReactor removes every registered fd and
// returns the module to pure polling.
type Reactive interface {
	AttachReactor(r Readiness) error
	DetachReactor()
}

// BatchSender is an optional Conn capability: SendBatch transmits a sequence
// of frames in order, amortizing per-call overhead — one sendmmsg(2) system
// call per batch on Linux datagram sockets, against one sendto(2) per frame
// through Send. It returns the number of frames handed to the wire; when err
// is non-nil, frames[n] is the one that failed and frames beyond it were not
// attempted. Like Send, every frame is borrowed: the caller may reuse or
// recycle the slices as soon as SendBatch returns.
type BatchSender interface {
	SendBatch(frames [][]byte) (int, error)
}

// CostHinter is an optional capability: a module that advertises its
// approximate poll cost so the context can derive skip_poll defaults
// automatically (the paper's "adaptive adjustment" future work).
type CostHinter interface {
	PollCostHint() time.Duration
}

// SizeLimiter is an optional capability: a module whose connections bound the
// frame size Conn.Send accepts. MaxMessage reports that bound in bytes; 0
// means unlimited (beyond the wire format's own cap). The core uses it to
// decide when a bulk payload must be fragmented, and size-aware selection
// uses it to prefer methods that can carry a payload natively. A Conn
// rejecting an oversized frame returns an error matching ErrTooLarge.
type SizeLimiter interface {
	MaxMessage() int
}

// StatsReporter is an optional capability: a module that exposes internal
// levels and totals (queue depths, buffered bytes) for the context's enquiry
// snapshot. Keys should be prefixed with the method name ("tcp.pending.bytes")
// so they merge into the context's counter namespace without collisions.
// TransportStats must be safe for concurrent use.
type StatsReporter interface {
	TransportStats() map[string]uint64
}

// Errors shared by module implementations.
var (
	// ErrNotApplicable reports a Dial on a descriptor the module cannot reach.
	ErrNotApplicable = errors.New("transport: descriptor not applicable to this module")
	// ErrClosed reports use of a closed module or connection.
	ErrClosed = errors.New("transport: closed")
	// ErrNotInitialized reports use of a module before Init.
	ErrNotInitialized = errors.New("transport: module not initialized")
	// ErrTooLarge reports a frame exceeding the method's message-size limit.
	// Method-specific too-large errors wrap it, so callers test any module's
	// rejection with errors.Is(err, transport.ErrTooLarge).
	ErrTooLarge = errors.New("transport: frame exceeds method message-size limit")
	// ErrNotReactive reports AttachReactor on a module that cannot use
	// readiness-driven detection in its current configuration; the caller
	// keeps the module poll-based.
	ErrNotReactive = errors.New("transport: module cannot use readiness detection")
)
