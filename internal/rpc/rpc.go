// Package rpc layers request/response and streaming semantics over the
// one-sided RSR primitive, in the style of Mercury-class RPC systems for
// extreme-scale services: a call is an RSR carrying the wire RPC extension
// (call id, kind, deadline), the reply travels back through a per-context
// response endpoint whose startpoint rides inside the request envelope, and
// the caller rendezvouses with the reply through a Future. Servers may
// stream ordered chunk sequences instead of a single reply.
//
// The layer inherits the substrate's guarantees wholesale: requests are
// encoded once, so failover retries resend byte-identical frames and a
// retried call keeps its call id (the caller suppresses the duplicate
// reply); an argument of any size is one request RSR, which fragments per
// link and is reassembled once, in pooled memory, and which waits for flow
// credit like any normal-class send; deadlines travel on the wire as
// absolute unix nanoseconds and cancel server-side work through a standard
// context.Context.
//
// Core does not import this package. Enable stores the runtime in the
// context's core.LayerRPC attachment slot, and core hands it every delivered
// frame carrying wire.FlagRPC through its Intake method.
package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nexus/internal/buffer"
	"nexus/internal/core"
	"nexus/internal/metrics"
	"nexus/internal/obsv"
	"nexus/internal/wire"
)

// DefaultTimeout bounds calls made with no explicit deadline.
const DefaultTimeout = 30 * time.Second

var (
	// ErrNotEnabled reports an RPC operation on a context without the layer
	// attached (Options.RPC.Enabled, or rpc.Enable).
	ErrNotEnabled = errors.New("rpc: layer not enabled on this context")
	// ErrCanceled reports a call abandoned by Future.Cancel / Stream.Cancel.
	ErrCanceled = errors.New("rpc: call canceled")
	// ErrAlreadyReplied reports a second completion on one Responder.
	ErrAlreadyReplied = errors.New("rpc: responder already completed")
)

// ErrDeadline is the unified timeout sentinel: errors from expired calls
// wrap it, and it matches context.DeadlineExceeded under errors.Is.
var ErrDeadline = core.ErrDeadline

// RemoteError is a handler failure reported by the serving context: the
// callee ran (or refused) the request and sent an RPCError reply.
type RemoteError struct {
	// Method is the RPC method the call named.
	Method string
	// Msg is the error text from the serving side.
	Msg string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("rpc: remote %q failed: %s", e.Method, e.Msg)
}

// Handler serves one inbound call. It may reply synchronously before
// returning or retain the Responder and complete the call later; either
// way each call must be completed exactly once (Reply, Error, or
// Send.../End).
type Handler func(req *Request, r *Responder)

// Request is one inbound call as seen by a Handler.
type Request struct {
	// Method is the RPC method name the caller invoked.
	Method string
	// Src is the calling context's id.
	Src uint64
	// CallID is the call's correlation id (unique per calling context).
	CallID uint64
	// Payload is the caller's argument buffer. It borrows the delivery
	// frame: it is valid only until the handler returns, and a handler that
	// defers its reply must copy what it needs (buffer.Clone).
	Payload *buffer.Buffer

	r        *RPC
	key      callKey
	deadline time.Time

	mu       sync.Mutex
	finished bool
	ctx      context.Context
	cancel   context.CancelFunc
}

// canceledCtx is the Context() result for a call that already completed.
var canceledCtx = func() context.Context {
	c, cancel := context.WithCancel(context.Background())
	cancel()
	return c
}()

// Context returns the call's context: done at the caller's wire-propagated
// deadline, or when the caller cancels the call. Handlers doing nontrivial
// work should watch it and abandon the call when it fires.
//
// The context (its deadline timer and the cancel-routing registration) is
// materialized on first use, so handlers that reply synchronously without
// looking at it pay nothing. A wire cancel arriving before the first
// Context() call is a no-op — there is no deferred work to stop yet.
func (q *Request) Context() context.Context {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.finished {
		return canceledCtx
	}
	if q.ctx == nil {
		if q.deadline.IsZero() {
			q.ctx, q.cancel = context.WithCancel(context.Background())
		} else {
			q.ctx, q.cancel = context.WithDeadline(context.Background(), q.deadline)
		}
		sc := &serverCall{cancel: q.cancel}
		r, key := q.r, q.key
		r.mu.Lock()
		r.active[key] = sc
		r.mu.Unlock()
		// Drop the routing entry whenever the call context ends — deadline,
		// wire cancel, or the responder completing the call.
		context.AfterFunc(q.ctx, func() {
			r.mu.Lock()
			if r.active[key] == sc {
				delete(r.active, key)
			}
			r.mu.Unlock()
		})
	}
	return q.ctx
}

// finish releases the call's context resources (if any were materialized)
// once the responder completes the call.
func (q *Request) finish() {
	q.mu.Lock()
	q.finished = true
	cancel := q.cancel
	q.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// callKey names one call globally: call ids are per calling context.
type callKey struct {
	src  uint64
	call uint64
}

// replyRoute is a cached decoded reply startpoint for one calling context.
type replyRoute struct {
	enc []byte // the encoded bytes the route was built from
	sp  *core.Startpoint
}

// serverCall is one in-flight inbound call, tracked so a wire cancel (or the
// deadline) can stop its handler's work.
type serverCall struct {
	cancel context.CancelFunc
}

// RPC is the request/response runtime attached to one context.
type RPC struct {
	ctx *core.Context

	// ep is the auto-registered response endpoint; replyEnc is its encoded
	// startpoint, embedded in every request envelope so the callee can route
	// replies back without any prior arrangement.
	ep       *core.Endpoint
	replyEnc []byte

	nextCall atomic.Uint64

	// envPool recycles request envelope buffers: RSRWithRPC encodes the
	// payload into the frame before returning, so an envelope is free for
	// reuse as soon as the send call completes.
	envPool sync.Pool

	mu       sync.Mutex
	pending  map[uint64]*pendingCall
	handlers map[string]Handler
	// methodNames interns registered method names so the request path can
	// use a stable string instead of cloning the borrowed frame's handler
	// bytes on every call.
	methodNames map[string]string
	routes      map[uint64]*replyRoute
	active      map[callKey]*serverCall
	lats        map[string]*obsv.StageSet

	cCalls      *metrics.Counter // rpc.calls
	cStreams    *metrics.Counter // rpc.calls.stream
	cReplies    *metrics.Counter // rpc.replies
	cDupReplies *metrics.Counter // rpc.replies.duplicate
	cErrors     *metrics.Counter // rpc.errors.remote
	cDeadline   *metrics.Counter // rpc.deadline
	cCancelSent *metrics.Counter // rpc.cancels.sent
	cCancelRecv *metrics.Counter // rpc.cancels.recv
	cServed     *metrics.Counter // rpc.served
	cUnknown    *metrics.Counter // rpc.unknown_handler
	cExpired    *metrics.Counter // rpc.expired
	cChunks     *metrics.Counter // rpc.stream.chunks
	cOrphans    *metrics.Counter // rpc.orphan_frames
	cBadFrames  *metrics.Counter // rpc.bad_frames
}

// Enable attaches the RPC runtime to a context: it registers the response
// endpoint and takes the context's core.LayerRPC slot, through which core
// hands it every delivered frame carrying wire.FlagRPC (Intake). The first
// Enable on a context wins: every call, concurrent ones included, returns
// that one runtime, and a call that lost the attach closes the response
// endpoint it built, so the context keeps one.
func Enable(c *core.Context) *RPC {
	if r := For(c); r != nil {
		return r
	}
	r := &RPC{
		ctx:         c,
		pending:     make(map[uint64]*pendingCall),
		handlers:    make(map[string]Handler),
		methodNames: make(map[string]string),
		routes:      make(map[uint64]*replyRoute),
		active:      make(map[callKey]*serverCall),
		lats:        make(map[string]*obsv.StageSet),
	}
	r.ep = c.NewEndpoint()
	spb := buffer.New(256)
	r.ep.NewStartpoint().Encode(spb)
	r.replyEnc = spb.Encode()
	st := c.Stats()
	r.cCalls = st.Counter("rpc.calls")
	r.cStreams = st.Counter("rpc.calls.stream")
	r.cReplies = st.Counter("rpc.replies")
	r.cDupReplies = st.Counter("rpc.replies.duplicate")
	r.cErrors = st.Counter("rpc.errors.remote")
	r.cDeadline = st.Counter("rpc.deadline")
	r.cCancelSent = st.Counter("rpc.cancels.sent")
	r.cCancelRecv = st.Counter("rpc.cancels.recv")
	r.cServed = st.Counter("rpc.served")
	r.cUnknown = st.Counter("rpc.unknown_handler")
	r.cExpired = st.Counter("rpc.expired")
	r.cChunks = st.Counter("rpc.stream.chunks")
	r.cOrphans = st.Counter("rpc.orphan_frames")
	r.cBadFrames = st.Counter("rpc.bad_frames")
	got := c.Attach(core.LayerRPC, r).(*RPC)
	if got != r {
		r.ep.Close()
	}
	return got
}

// For returns the RPC runtime attached to a context, or nil.
func For(c *core.Context) *RPC {
	r, _ := c.Attached(core.LayerRPC).(*RPC)
	return r
}

// Register installs (or replaces) the handler serving one RPC method name.
func (r *RPC) Register(method string, h Handler) {
	r.mu.Lock()
	r.handlers[method] = h
	r.methodNames[method] = method
	r.mu.Unlock()
}

// Register installs a handler on a context's attached RPC runtime.
func Register(c *core.Context, method string, h Handler) error {
	r := For(c)
	if r == nil {
		return ErrNotEnabled
	}
	r.Register(method, h)
	return nil
}

// Intake consumes every delivered frame carrying the wire RPC extension; core
// calls it through the context's LayerRPC slot. It runs on the delivery
// goroutine under handler constraints: the frame's handler name and payload
// are borrowed, so anything retained is copied here. The frame comes by value
// so that the poller's stack-decoded frame does not escape.
func (r *RPC) Intake(in wire.Frame) {
	switch in.RPC.Kind {
	case wire.RPCRequest:
		r.handleRequest(&in)
	case wire.RPCResponse, wire.RPCError, wire.RPCStreamChunk, wire.RPCStreamEnd:
		r.handleReply(&in)
	case wire.RPCCancel:
		r.handleCancel(&in)
	default:
		r.cBadFrames.Inc()
	}
}

// routeFor resolves (and caches) the reply startpoint for one calling
// context. The cache revalidates against the envelope bytes, so a caller
// that rebuilds its response endpoint gets a fresh route on its next call.
func (r *RPC) routeFor(src uint64, spBytes []byte) (*replyRoute, error) {
	r.mu.Lock()
	rt := r.routes[src]
	r.mu.Unlock()
	if rt != nil && bytes.Equal(rt.enc, spBytes) {
		return rt, nil
	}
	dec, err := buffer.FromBytes(spBytes)
	if err != nil {
		return nil, err
	}
	sp, err := r.ctx.DecodeStartpoint(dec)
	if err != nil {
		return nil, err
	}
	// Replies ride the supervised send path: if the method that carried the
	// request dies, the reply fails over to the next applicable one.
	sp.SetFailover(true)
	nrt := &replyRoute{enc: append([]byte(nil), spBytes...), sp: sp}
	r.mu.Lock()
	r.routes[src] = nrt
	r.mu.Unlock()
	return nrt, nil
}

// handleRequest serves an inbound RPCRequest. A large request arrives here
// like a small one: core has already reassembled its fragments.
func (r *RPC) handleRequest(in *wire.Frame) {
	env, err := buffer.Decode(in.Payload)
	if err != nil {
		r.cBadFrames.Inc()
		return
	}
	// The envelope views borrow the delivered frame; routeFor copies the
	// startpoint bytes if (and only if) it has to build a fresh route, and
	// the request bytes are consumed synchronously by serve below.
	spBytes, reqBytes := env.BytesView(), env.BytesView()
	if env.Err() != nil {
		r.cBadFrames.Inc()
		return
	}
	r.mu.Lock()
	route := r.routes[in.SrcContext]
	method, interned := r.methodNames[in.Handler]
	h := r.handlers[in.Handler]
	r.mu.Unlock()
	if route == nil || !bytes.Equal(route.enc, spBytes) {
		if route, err = r.routeFor(in.SrcContext, spBytes); err != nil {
			r.cBadFrames.Inc()
			return
		}
	}
	if !interned {
		method = strings.Clone(in.Handler)
	}
	key := callKey{src: in.SrcContext, call: in.RPC.Call}
	var deadline time.Time
	if in.RPC.Aux != 0 {
		deadline = time.Unix(0, int64(in.RPC.Aux))
	}
	r.serve(key, method, h, route, reqBytes, deadline, obsv.TraceID(in.Trace))
}

// coarseClock caches the wall clock (unix nanoseconds), advanced whenever
// the layer takes a real reading. It makes the expired-on-arrival triage in
// serve nearly free in the common case: a real clock read (which refreshes
// the cache) happens only when the cached time suggests the deadline may
// already have passed. The cache only lags real time, so the triage can
// admit a request that has in fact expired — that is fine, because the
// authoritative deadline enforcement is the handler's Request.Context(),
// and an abandoned caller just drops the late reply as a duplicate.
var coarseClock atomic.Int64

// expiredOnArrival reports whether deadline has passed, reading the real
// clock only when the cached one cannot rule it out.
func expiredOnArrival(deadline time.Time) bool {
	dn := deadline.UnixNano()
	if dn > coarseClock.Load() {
		return false
	}
	now := time.Now()
	coarseClock.Store(now.UnixNano())
	return !now.Before(deadline)
}

// inboundCall packs one call's server-side state — request, responder, and
// the decoded argument buffer — into a single allocation.
type inboundCall struct {
	q   Request
	rp  Responder
	arg buffer.Buffer
}

// serve runs one call through its resolved handler (looked up by the caller
// under the same lock acquisition that resolved the route). The request
// bytes borrow the delivery frame, so the handler runs synchronously here.
func (r *RPC) serve(key callKey, method string, h Handler, route *replyRoute,
	reqBytes []byte, deadline time.Time, trace obsv.TraceID) {
	if h == nil {
		r.cUnknown.Inc()
		rp := r.newResponder(key, route, method, trace, nil)
		_ = rp.Error(fmt.Errorf("rpc: no handler registered for %q", method))
		return
	}
	if !deadline.IsZero() && expiredOnArrival(deadline) {
		// The caller's deadline has already passed: it has abandoned the
		// call, so running the handler (or replying) is pure waste.
		r.cExpired.Inc()
		return
	}
	// One allocation covers all of the call's server-side state.
	ic := &inboundCall{
		q: Request{
			Method: method, Src: key.src, CallID: key.call,
			r: r, key: key, deadline: deadline,
		},
		rp: Responder{r: r, key: key, route: route, method: method, trace: trace},
	}
	var err error
	if ic.arg, err = buffer.Decode(reqBytes); err != nil {
		r.cBadFrames.Inc()
		return
	}
	q, rp := &ic.q, &ic.rp
	q.Payload = &ic.arg
	rp.req = q
	r.cServed.Inc()
	if !r.ctx.StatsEnabled() {
		h(q, rp)
		return
	}
	t0 := time.Now()
	h(q, rp)
	d := time.Since(t0)
	r.latFor(method).Stage(obsv.StageRPCServe).Record(d)
	r.ctx.RecordEvent(obsv.Event{
		Trace: trace, Stage: obsv.StageRPCServe,
		Peer: key.src, Handler: method, Dur: d,
	})
}

// handleCancel stops an in-flight inbound call's work: the handler's context
// fires.
func (r *RPC) handleCancel(in *wire.Frame) {
	key := callKey{src: in.SrcContext, call: in.RPC.Call}
	r.mu.Lock()
	sc := r.active[key]
	r.mu.Unlock()
	r.cCancelRecv.Inc()
	if sc != nil {
		sc.cancel()
	}
}

// latFor returns (lazily creating and publishing) the latency stage set for
// one RPC method, visible in the context's Observe snapshot as "rpc:<name>".
func (r *RPC) latFor(method string) *obsv.StageSet {
	r.mu.Lock()
	ss := r.lats[method]
	fresh := ss == nil
	if fresh {
		ss = &obsv.StageSet{}
		r.lats[method] = ss
	}
	r.mu.Unlock()
	if fresh {
		r.ctx.RegisterLatencies("rpc:"+method, ss)
	}
	return ss
}

// Responder completes one inbound call: exactly one of Reply, Error, or a
// Send.../End sequence. It may outlive the handler invocation for deferred
// replies. Methods are safe for concurrent use.
type Responder struct {
	r      *RPC
	key    callKey
	route  *replyRoute
	method string
	trace  obsv.TraceID
	req    *Request // nil for synthetic responders (unknown handler)

	mu        sync.Mutex
	streaming bool
	done      bool
	next      uint64
}

func (r *RPC) newResponder(key callKey, route *replyRoute, method string,
	trace obsv.TraceID, req *Request) *Responder {
	return &Responder{r: r, key: key, route: route, method: method, trace: trace, req: req}
}

// finishCall releases the request's lazily-materialized context resources
// once the responder completes the call.
func (rp *Responder) finishCall() {
	if rp.req != nil {
		rp.req.finish()
	}
}

// send emits one reply-direction frame over the cached reply route.
func (rp *Responder) send(b *buffer.Buffer, kind byte, aux uint64, cls core.Class) error {
	return rp.route.sp.RSRWithRPC(rp.method, b, core.RPCSend{
		Ext:   wire.RPCExt{Call: rp.key.call, Kind: kind, Aux: aux},
		Class: cls, Trace: rp.trace,
	})
}

// Reply completes the call successfully with a result buffer (nil for an
// empty result). Replies are control-class: they bypass credit windows and
// are never shed, so a request/reply rendezvous cannot deadlock on flow
// control.
func (rp *Responder) Reply(b *buffer.Buffer) error {
	rp.mu.Lock()
	if rp.done || rp.streaming {
		rp.mu.Unlock()
		return ErrAlreadyReplied
	}
	rp.done = true
	rp.mu.Unlock()
	defer rp.finishCall()
	return rp.send(b, wire.RPCResponse, 0, core.ClassControl)
}

// Error completes the call with a failure the caller sees as a RemoteError.
func (rp *Responder) Error(err error) error {
	rp.mu.Lock()
	if rp.done {
		rp.mu.Unlock()
		return ErrAlreadyReplied
	}
	rp.done = true
	rp.mu.Unlock()
	defer rp.finishCall()
	msg := "unknown error"
	if err != nil {
		msg = err.Error()
	}
	b := buffer.New(len(msg) + 8)
	b.PutString(msg)
	return rp.send(b, wire.RPCError, 0, core.ClassControl)
}

// Send emits one chunk of a streaming reply. Chunks carry their sequence
// index on the wire and travel as ClassBulk, so overload policies may shed
// them before anything else; the stream's End frame is control-class and
// always arrives, letting the caller detect the gap by index.
func (rp *Responder) Send(chunk *buffer.Buffer) error {
	rp.mu.Lock()
	if rp.done {
		rp.mu.Unlock()
		return ErrAlreadyReplied
	}
	rp.streaming = true
	idx := rp.next
	rp.next++
	rp.mu.Unlock()
	rp.r.cChunks.Inc()
	return rp.send(chunk, wire.RPCStreamChunk, idx, core.ClassBulk)
}

// End terminates a streaming reply, carrying the chunk count. A stream with
// zero Sends is a legal empty stream.
func (rp *Responder) End() error {
	rp.mu.Lock()
	if rp.done {
		rp.mu.Unlock()
		return ErrAlreadyReplied
	}
	rp.done = true
	n := rp.next
	rp.mu.Unlock()
	defer rp.finishCall()
	return rp.send(nil, wire.RPCStreamEnd, n, core.ClassControl)
}
