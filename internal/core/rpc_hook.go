package core

import (
	"context"
	"fmt"

	"nexus/internal/obsv"
	"nexus/internal/wire"
)

// This file is the core's side of the request/response layer (internal/rpc):
// the deadline error shared by every timeout surface, the Options.RPC
// configuration block, and the intake hook through which frames carrying
// wire.FlagRPC leave the ordinary endpoint/handler dispatch and reach the
// RPC runtime attached to the context. The hook keeps the layering one-way:
// core knows nothing about calls, futures, or streams — it hands over the
// decoded correlation extension and the borrowed payload and goes back to
// polling.

// deadlineError is the concrete type behind ErrDeadline: a sentinel that
// also matches context.DeadlineExceeded under errors.Is, so callers can test
// against either vocabulary.
type deadlineError struct{}

func (deadlineError) Error() string { return "core: deadline exceeded" }

func (deadlineError) Is(target error) bool { return target == context.DeadlineExceeded }

// ErrDeadline reports an operation abandoned at its deadline. It unifies the
// timeout errors across the stack: errors.Is(err, ErrDeadline) and
// errors.Is(err, context.DeadlineExceeded) both hold for any error wrapping
// it.
var ErrDeadline error = deadlineError{}

// RPCConfig selects the request/response layer (Options.RPC). The layer
// itself lives in internal/rpc and is attached by the facade (or by calling
// rpc.Enable directly); core only carries the switch.
type RPCConfig struct {
	// Enabled attaches the RPC runtime to the context at construction.
	Enabled bool
}

// RPCInbound is one delivered frame carrying the wire RPC extension, as
// handed to the intake hook. Payload (and Handler, which aliases the frame)
// are borrowed: they are valid only for the duration of the intake call, and
// the hook must copy whatever it retains.
type RPCInbound struct {
	// SrcContext is the sending context.
	SrcContext uint64
	// Handler is the wire handler name (the RPC method name on requests).
	Handler string
	// RPC is the decoded correlation extension.
	RPC wire.RPCExt
	// Trace is the frame's trace id (zero when untraced).
	Trace obsv.TraceID
	// Payload is the encoded argument buffer, borrowed from the frame.
	Payload []byte
}

// RPCIntakeFunc consumes inbound RPC frames. It runs on the delivery
// goroutine (the poller inline, or a dispatch lane in threaded mode), under
// the same constraints as a handler: it must not retain Payload.
type RPCIntakeFunc func(in RPCInbound)

// SetRPCIntake installs the hook that receives every delivered frame
// carrying wire.FlagRPC, displacing ordinary handler dispatch for those
// frames. Passing nil uninstalls it; RPC frames are then counted and
// dropped.
func (c *Context) SetRPCIntake(fn RPCIntakeFunc) {
	if fn == nil {
		c.rpcIntake.Store(nil)
		return
	}
	c.rpcIntake.Store(&fn)
}

// SetRPCState attaches the RPC runtime (an *rpc.RPC, but core does not know
// the type) to the context, and RPCState retrieves it. This is how
// package-level helpers like nexus.Call find the runtime from a startpoint's
// owning context.
func (c *Context) SetRPCState(v any) { c.rpcState.Store(v) }

// RPCState returns the value attached with SetRPCState (nil before any).
func (c *Context) RPCState() any { return c.rpcState.Load() }

// NewTraceID draws a fresh trace/span id from the context's generator, for
// subsystems (internal/rpc) that span several sends under one id.
func (c *Context) NewTraceID() obsv.TraceID { return c.newTraceID() }

// RecordEvent appends one event to the trace ring if tracing is enabled, and
// is a no-op otherwise. The recording context and timestamp are filled in.
func (c *Context) RecordEvent(e obsv.Event) {
	if c.obs.mode.Load()&obsTrace == 0 {
		return
	}
	c.recordEvent(e)
}

// RegisterLatencies publishes a stage set under the given name in the
// context's observability snapshot (Observe), alongside the per-method sets.
// Registering the same name again keeps the existing set.
func (c *Context) RegisterLatencies(name string, ss *obsv.StageSet) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.registerStageSet(name, ss)
}

// deliverRPC hands a frame carrying the RPC extension to the installed
// intake. Runs bracketed by the dispatch gate, like any delivery.
func (c *Context) deliverRPC(f *wire.Frame) {
	fn := c.rpcIntake.Load()
	if fn == nil {
		c.cDropNoRPC.Inc()
		c.errlog(fmt.Errorf("core: context %d: rpc frame (call %d kind %d) but no rpc layer attached",
			c.id, f.RPC.Call, f.RPC.Kind))
		return
	}
	(*fn)(RPCInbound{
		SrcContext: f.SrcContext,
		Handler:    f.Handler,
		RPC:        f.RPC,
		Trace:      obsv.TraceID(f.Trace),
		Payload:    f.Payload,
	})
}
