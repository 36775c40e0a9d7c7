package rpc

import (
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"time"

	"nexus/internal/buffer"
	"nexus/internal/core"
	"nexus/internal/obsv"
	"nexus/internal/wire"
)

// awaitSlice chunks a Future's wait so the deadline is checked even when no
// frames arrive: each PollUntil pass drives the owning context's poller for
// at most this long before the caller re-examines the clock.
const awaitSlice = 20 * time.Millisecond

// maxPooledEnvelope bounds the request envelopes envPool keeps. An envelope
// a large argument grew past it is left to the collector: pooled, it would
// pin the argument's size for later small calls (rpc_mix peak RSS rose 7%
// when every envelope was kept).
const maxPooledEnvelope = 64 << 10

// CallOptions tunes one call.
type CallOptions struct {
	// Timeout bounds the call relative to now. 0 applies DefaultTimeout;
	// negative disables the deadline entirely.
	Timeout time.Duration
	// Deadline bounds the call absolutely and takes precedence over Timeout
	// when nonzero.
	Deadline time.Time
}

// pendingCall is the caller-side record of one outstanding call. doneFlag
// and eventSeq are the poll predicates (lock-free); everything under "r.mu"
// is guarded by the owning runtime's mutex.
type pendingCall struct {
	r        *RPC
	id       uint64
	sp       *core.Startpoint
	method   string
	trace    obsv.TraceID
	t0       time.Time // set only when stats are enabled
	deadline time.Time
	stream   bool

	doneFlag atomic.Bool
	eventSeq atomic.Uint64 // bumped on every completion or stream event

	// Guarded by r.mu.
	done      bool
	result    *buffer.Buffer
	resultBuf buffer.Buffer // inline storage for the unary reply
	err       error
	chunks    map[uint64]*buffer.Buffer // received, not yet consumed, by index; lazily made
	next      uint64                    // next chunk index Recv returns
	total     uint64                    // chunk count, valid once ended
	ended     bool
}

// Future is the rendezvous for one unary call. The pending record lives
// inline, so a call costs one allocation on the caller side.
type Future struct{ pc pendingCall }

// Stream is the rendezvous for one streaming call: an ordered sequence of
// chunks terminated by io.EOF or an error.
type Stream struct{ pc pendingCall }

// Call starts a unary request on one of the runtime's startpoints and
// returns immediately with a Future. req may be nil for an argument-less
// call; the buffer is encoded before Call returns and may be reused after.
func (r *RPC) Call(sp *core.Startpoint, method string, req *buffer.Buffer, opts CallOptions) (*Future, error) {
	f := &Future{}
	if err := r.startCall(&f.pc, sp, method, req, opts, false); err != nil {
		return nil, err
	}
	return f, nil
}

// CallStream starts a streaming request: the server replies with an ordered
// chunk sequence consumed through Stream.Recv. A server that answers with a
// plain Reply is surfaced as a one-chunk stream.
func (r *RPC) CallStream(sp *core.Startpoint, method string, req *buffer.Buffer, opts CallOptions) (*Stream, error) {
	s := &Stream{}
	if err := r.startCall(&s.pc, sp, method, req, opts, true); err != nil {
		return nil, err
	}
	return s, nil
}

// Call starts a unary request through the RPC runtime attached to the
// startpoint's owning context.
func Call(sp *core.Startpoint, method string, req *buffer.Buffer, opts CallOptions) (*Future, error) {
	r := For(sp.Owner())
	if r == nil {
		return nil, ErrNotEnabled
	}
	return r.Call(sp, method, req, opts)
}

// CallStream starts a streaming request through the RPC runtime attached to
// the startpoint's owning context.
func CallStream(sp *core.Startpoint, method string, req *buffer.Buffer, opts CallOptions) (*Stream, error) {
	r := For(sp.Owner())
	if r == nil {
		return nil, ErrNotEnabled
	}
	return r.CallStream(sp, method, req, opts)
}

// startCall allocates the call id, registers the pending record, and sends
// the request. The pending record is registered before the send:
// same-process transports deliver synchronously, so the reply can arrive
// before RSRWithRPC returns.
func (r *RPC) startCall(pc *pendingCall, sp *core.Startpoint, method string, req *buffer.Buffer,
	opts CallOptions, stream bool) error {
	if sp.Owner() != r.ctx {
		return fmt.Errorf("rpc: startpoint belongs to context %d, not this runtime's", sp.Owner().ID())
	}
	var now time.Time
	var deadline time.Time
	switch {
	case !opts.Deadline.IsZero():
		deadline = opts.Deadline
	case opts.Timeout > 0:
		now = time.Now()
		deadline = now.Add(opts.Timeout)
	case opts.Timeout < 0:
		// no deadline
	default:
		now = time.Now()
		deadline = now.Add(DefaultTimeout)
	}
	if !now.IsZero() {
		coarseClock.Store(now.UnixNano())
	}
	reqLen := 1 // a nil request travels as a lone format tag
	if req != nil {
		reqLen = req.EncodedLen()
	}
	id := r.nextCall.Add(1)
	var trace obsv.TraceID
	if r.ctx.TracingEnabled() {
		trace = r.ctx.NewTraceID()
	}
	// pc arrives zero-valued (inline in a freshly allocated Future or
	// Stream), so only the non-zero fields need writing.
	pc.r, pc.id, pc.sp, pc.method = r, id, sp, method
	pc.trace = trace
	pc.deadline = deadline
	pc.stream = stream
	if r.ctx.StatsEnabled() {
		if now.IsZero() {
			now = time.Now()
		}
		pc.t0 = now
	}
	env, _ := r.envPool.Get().(*buffer.Buffer)
	if env == nil {
		env = buffer.New(len(r.replyEnc) + reqLen + 16)
	} else {
		env.Reset()
	}
	env.PutBytes(r.replyEnc)
	env.PutEncoded(req)
	var aux uint64
	if !deadline.IsZero() {
		aux = uint64(deadline.UnixNano())
	}
	r.mu.Lock()
	r.pending[id] = pc
	r.mu.Unlock()
	r.cCalls.Inc()
	if stream {
		r.cStreams.Inc()
	}
	err := sp.RSRWithRPC(method, env, core.RPCSend{
		Ext:   wire.RPCExt{Call: id, Kind: wire.RPCRequest, Aux: aux},
		Class: sp.Class(), Trace: trace,
	})
	// The send encoded the envelope into its frame (or failed); either way
	// the buffer is ours again.
	if cap(env.Bytes()) <= maxPooledEnvelope {
		r.envPool.Put(env)
	}
	if err != nil {
		r.mu.Lock()
		delete(r.pending, id)
		r.mu.Unlock()
		return err
	}
	return nil
}

// complete finishes a call exactly once; the loser of a completion race (a
// duplicate reply, a deadline racing the real reply) is told so by the
// return value and must not act on the call further.
func (r *RPC) complete(pc *pendingCall, res *buffer.Buffer, err error) bool {
	r.mu.Lock()
	if pc.done {
		r.mu.Unlock()
		return false
	}
	pc.done = true
	pc.result = res
	pc.err = err
	delete(r.pending, pc.id)
	r.mu.Unlock()
	pc.doneFlag.Store(true)
	pc.eventSeq.Add(1)
	if r.ctx.StatsEnabled() && !pc.t0.IsZero() {
		d := time.Since(pc.t0)
		r.latFor(pc.method).Stage(obsv.StageRPCCall).Record(d)
		r.ctx.RecordEvent(obsv.Event{
			Trace: pc.trace, Stage: obsv.StageRPCCall, Handler: pc.method, Dur: d,
		})
	}
	return true
}

// expire fails a call at its deadline and tells the callee to stop working.
func (r *RPC) expire(pc *pendingCall) {
	if r.complete(pc, nil, fmt.Errorf("rpc: call %d (%s) deadline exceeded: %w",
		pc.id, pc.method, core.ErrDeadline)) {
		r.cDeadline.Inc()
		r.sendCancel(pc)
	}
}

// sendCancel emits a best-effort RPCCancel for an abandoned call: delivery
// failures are ignored (the callee's own deadline clock backstops it).
func (r *RPC) sendCancel(pc *pendingCall) {
	r.cCancelSent.Inc()
	_ = pc.sp.RSRWithRPC(pc.method, nil, core.RPCSend{
		Ext:   wire.RPCExt{Call: pc.id, Kind: wire.RPCCancel},
		Class: core.ClassControl, Trace: pc.trace,
	})
}

// await drives the owning context's poller until pred holds or the call's
// deadline passes (at which point the call is expired and pred holds by way
// of the completion). seq-style predicates must observe their own updates
// through eventSeq/doneFlag, which every intake path bumps.
func (pc *pendingCall) await(pred func() bool) {
	r := pc.r
	// Fast path: a bounded clock-free poll spin. Same-host replies land
	// within a few poll passes, and skipping the deadline arithmetic (two
	// clock reads per slice) keeps the rendezvous within the raw round
	// trip's budget.
	for i := 0; i < 128; i++ {
		if pred() {
			return
		}
		if r.ctx.Poll() == 0 {
			runtime.Gosched()
		}
	}
	for !pred() {
		wait := awaitSlice
		if !pc.deadline.IsZero() {
			left := time.Until(pc.deadline)
			if left <= 0 {
				r.expire(pc)
				return
			}
			if left < wait {
				wait = left
			}
		}
		r.ctx.PollUntil(pred, wait)
	}
}

// Await blocks until the call completes — reply, remote error, cancel, or
// deadline — and returns its result. The returned buffer is owned by the
// caller. Await may be called repeatedly; every call returns the same
// outcome.
func (f *Future) Await() (*buffer.Buffer, error) {
	pc := &f.pc
	pc.await(pc.doneFlag.Load)
	pc.r.mu.Lock()
	res, err := pc.result, pc.err
	pc.r.mu.Unlock()
	return res, err
}

// Done reports whether the call has completed (Await will not block).
func (f *Future) Done() bool { return f.pc.doneFlag.Load() }

// Cancel abandons the call: the Future fails with ErrCanceled and the callee
// is told to stop. A call that already completed is unaffected.
func (f *Future) Cancel() {
	pc := &f.pc
	if pc.r.complete(pc, nil, fmt.Errorf("rpc: call %d (%s): %w", pc.id, pc.method, ErrCanceled)) {
		pc.r.sendCancel(pc)
	}
}

// Recv returns the next chunk in order, io.EOF after the final chunk of a
// cleanly ended stream, or the call's error. Chunks are re-ordered by their
// wire index, so out-of-order arrival (bulk lanes racing the control-class
// End frame) is invisible here.
func (s *Stream) Recv() (*buffer.Buffer, error) {
	pc := &s.pc
	r := pc.r
	for {
		r.mu.Lock()
		if ch, ok := pc.chunks[pc.next]; ok {
			delete(pc.chunks, pc.next)
			pc.next++
			r.mu.Unlock()
			return ch, nil
		}
		if pc.done {
			err := pc.err
			r.mu.Unlock()
			if err == nil {
				err = io.EOF
			}
			return nil, err
		}
		if pc.ended && pc.next >= pc.total {
			r.mu.Unlock()
			// The stream is drained: complete the call so the deadline stops
			// ticking and late duplicates are counted as such.
			r.complete(pc, nil, nil)
			continue
		}
		seq := pc.eventSeq.Load()
		r.mu.Unlock()
		pc.await(func() bool { return pc.eventSeq.Load() != seq })
	}
}

// Done reports whether the stream's call has completed.
func (s *Stream) Done() bool { return s.pc.doneFlag.Load() }

// Cancel abandons the stream; a pending or future Recv returns ErrCanceled.
func (s *Stream) Cancel() {
	pc := &s.pc
	if pc.r.complete(pc, nil, fmt.Errorf("rpc: call %d (%s): %w", pc.id, pc.method, ErrCanceled)) {
		pc.r.sendCancel(pc)
	}
}

// clonePayload copies a borrowed frame payload into an owned decode buffer.
func clonePayload(p []byte) (*buffer.Buffer, error) {
	return buffer.FromBytes(append([]byte(nil), p...))
}

// handleReply routes every reply-direction frame — responses, remote errors,
// stream chunks, stream ends — to its pending call. Frames for unknown call
// ids are duplicates (the call completed: deadline, cancel, or an earlier
// copy of this reply after a failover retry) or orphans, and are counted but
// otherwise dropped: this is the duplicate-reply suppression that makes
// retried requests safe.
func (r *RPC) handleReply(in *wire.Frame) {
	if in.RPC.Kind == wire.RPCResponse {
		// The unary response fast path: one lock acquisition covers the
		// pending lookup and the completion, and the reply lands in the
		// pending record's inline result buffer.
		r.mu.Lock()
		pc := r.pending[in.RPC.Call]
		if pc == nil || pc.done || (pc.stream && pc.ended) {
			r.mu.Unlock()
			r.cDupReplies.Inc()
			return
		}
		if pc.stream {
			// A unary Reply answering CallStream: surface it as a one-chunk
			// stream rather than a protocol error, so servers need not know
			// how they were called.
			res, cerr := clonePayload(in.Payload)
			if cerr != nil {
				r.mu.Unlock()
				r.cBadFrames.Inc()
				return
			}
			pc.chunks = map[uint64]*buffer.Buffer{0: res}
			pc.ended = true
			pc.total = 1
			r.mu.Unlock()
			r.cReplies.Inc()
			pc.eventSeq.Add(1)
			return
		}
		if cerr := pc.resultBuf.SetEncoded(in.Payload); cerr != nil {
			r.mu.Unlock()
			r.cBadFrames.Inc()
			return
		}
		pc.done = true
		pc.result = &pc.resultBuf
		delete(r.pending, pc.id)
		r.mu.Unlock()
		pc.doneFlag.Store(true)
		pc.eventSeq.Add(1)
		r.cReplies.Inc()
		if r.ctx.StatsEnabled() && !pc.t0.IsZero() {
			d := time.Since(pc.t0)
			r.latFor(pc.method).Stage(obsv.StageRPCCall).Record(d)
			r.ctx.RecordEvent(obsv.Event{
				Trace: pc.trace, Stage: obsv.StageRPCCall, Handler: pc.method, Dur: d,
			})
		}
		return
	}
	r.mu.Lock()
	pc := r.pending[in.RPC.Call]
	r.mu.Unlock()
	if pc == nil {
		switch in.RPC.Kind {
		case wire.RPCError:
			r.cDupReplies.Inc()
		default:
			r.cOrphans.Inc()
		}
		return
	}
	switch in.RPC.Kind {
	case wire.RPCError:
		msgb, err := clonePayload(in.Payload)
		if err != nil {
			r.cBadFrames.Inc()
			return
		}
		rerr := &RemoteError{Method: pc.method, Msg: msgb.String()}
		if r.complete(pc, nil, rerr) {
			r.cErrors.Inc()
		} else {
			r.cDupReplies.Inc()
		}
	case wire.RPCStreamChunk:
		if !pc.stream {
			r.complete(pc, nil, fmt.Errorf("rpc: call %d (%s): stream chunk answering a unary call",
				pc.id, pc.method))
			return
		}
		ch, err := clonePayload(in.Payload)
		if err != nil {
			r.cBadFrames.Inc()
			return
		}
		r.mu.Lock()
		if pc.done {
			r.mu.Unlock()
			r.cDupReplies.Inc()
			return
		}
		if _, dup := pc.chunks[in.RPC.Aux]; dup || in.RPC.Aux < pc.next {
			// Already held or already consumed: a failover-retried chunk.
			r.mu.Unlock()
			r.cDupReplies.Inc()
			return
		}
		if pc.chunks == nil {
			pc.chunks = make(map[uint64]*buffer.Buffer)
		}
		pc.chunks[in.RPC.Aux] = ch
		r.mu.Unlock()
		pc.eventSeq.Add(1)
	case wire.RPCStreamEnd:
		if !pc.stream {
			r.complete(pc, nil, fmt.Errorf("rpc: call %d (%s): stream end answering a unary call",
				pc.id, pc.method))
			return
		}
		r.mu.Lock()
		if pc.done || pc.ended {
			r.mu.Unlock()
			r.cDupReplies.Inc()
			return
		}
		pc.ended = true
		pc.total = in.RPC.Aux
		r.mu.Unlock()
		pc.eventSeq.Add(1)
	}
}
