// Package reactor provides event-driven readiness detection for the
// multimethod polling loop.
//
// The paper's unified poll function pays a per-module system call on every
// pass — a readiness probe per socket whether or not anything is pending —
// and mitigates the cost with skip_poll tuning. The reactor inverts the
// model: one OS readiness facility (epoll on Linux) owns the file
// descriptors of every socket-backed communication module, a single
// goroutine blocks in the kernel waiting for events, and readiness is
// published to the poll loop through callbacks that set bits in an atomic
// word. A poll pass then consumes readiness for free: one atomic load
// decides whether any reactor-backed module has work, and modules without
// work are never touched — zero system calls on the idle path, regardless
// of how many expensive methods are enabled.
//
// A process needs one reactor: core builds it for the first context that
// uses it and never closes it, and every context's modules register their
// fds with it, so a process holds one blocked waiter however many contexts
// it runs. New and Close stay available for callers that want a private one.
//
// Edge-triggered registration is deliberate. The reactor goroutine never
// reads the sockets itself (delivery stays on the polling goroutine, where
// the paper's detection semantics live); with level-triggered events the
// waiting goroutine would spin on a socket it does not drain. A consumed
// edge is not announced again, so modules and their poller share the
// contract written on transport.Reactive: a notified module is polled until
// it has reported nothing pending several times in a row.
//
// The reactor is a Linux fast path, not a portability layer: Supported()
// reports false elsewhere and New returns ErrUnsupported, leaving every
// module on the portable Poll fallback. Modules opt in through the
// transport.Reactive capability; inproc, simnet, and other memory-backed
// methods never register and keep their (cheap) polls.
package reactor

import "errors"

// ErrUnsupported reports that this platform has no readiness facility the
// reactor can use; callers fall back to pure polling.
var ErrUnsupported = errors.New("reactor: not supported on this platform")

// ErrClosed reports registration against a closed reactor.
var ErrClosed = errors.New("reactor: closed")
