// Package core implements the multimethod communication architecture of the
// paper: contexts, communication links (startpoint → endpoint), remote
// service requests, communication descriptor tables, automatic and manual
// method selection, multimethod polling with skip_poll, and forwarding.
//
// A Context is an address space (the paper's "virtual processor"). It hosts
// endpoints, a handler table, a set of communication modules in preference
// order, and the machinery that detects and dispatches incoming RSRs across
// all of those modules.
package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nexus/internal/buffer"
	"nexus/internal/frag"
	"nexus/internal/metrics"
	"nexus/internal/obsv"
	"nexus/internal/reactor"
	"nexus/internal/transport"
	"nexus/internal/wire"
)

// Errors returned by core operations.
var (
	// ErrClosed reports use of a closed context.
	ErrClosed = errors.New("core: context closed")
	// ErrNoApplicableMethod reports that no method in a startpoint's
	// descriptor table is applicable from the sending context.
	ErrNoApplicableMethod = errors.New("core: no applicable communication method")
	// ErrNoTable reports a lightweight startpoint whose target context has
	// no registered peer table.
	ErrNoTable = errors.New("core: no descriptor table for target context")
	// ErrUnknownHandler reports an RSR naming a handler the destination
	// context has not registered.
	ErrUnknownHandler = errors.New("core: unknown handler")
	// ErrUnknownEndpoint reports an RSR addressed to a destroyed or unknown
	// endpoint.
	ErrUnknownEndpoint = errors.New("core: unknown endpoint")
	// ErrUnknownMethod reports a manual selection of a method the context
	// has not enabled.
	ErrUnknownMethod = errors.New("core: method not enabled in this context")
)

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

// Layer names one attachment slot: the place a layer built on core
// (internal/rpc, internal/cluster) hangs its runtime on a context. Core does
// not import those layers. It holds each attached value opaquely and reaches
// it only through two optional methods: Intake (frameIntake) for frames
// carrying wire.FlagRPC, and ObserveInto (snapshotRows) for Observe's rows.
type Layer int

const (
	// LayerRPC holds the request/response runtime (rpc.Enable).
	LayerRPC Layer = iota
	// LayerCluster holds the gossip membership agent (cluster.Attach).
	LayerCluster
	numLayers
)

// frameIntake is what the value attached as LayerRPC implements: it receives
// every delivered frame carrying wire.FlagRPC in place of endpoint/handler
// dispatch, on the delivery goroutine and under a handler's constraints
// (the frame's Handler and Payload are borrowed for the call). The frame is
// passed by value: a pointer would make the poller's stack-decoded frame
// escape, one more allocation per delivered RSR.
type frameIntake interface{ Intake(f wire.Frame) }

// snapshotRows is implemented by an attached value that adds rows to
// Observe's snapshot (the cluster agent's membership table).
type snapshotRows interface{ ObserveInto(s *obsv.Snapshot) }

// attachment is one taken slot. intake is asserted once, at Attach, so the
// delivery path pays no type assertion per frame.
type attachment struct {
	v      any
	intake frameIntake
}

// Attach stores v in layer l's slot unless the slot is taken: the first
// attach wins, and every caller gets back what the slot holds. A caller that
// gets back something other than v lost, and must discard v and anything it
// installed for it.
func (c *Context) Attach(l Layer, v any) any {
	a := &attachment{v: v}
	a.intake, _ = v.(frameIntake)
	if c.layers[l].CompareAndSwap(nil, a) {
		return v
	}
	return c.layers[l].Load().v
}

// Attached returns the value in layer l's slot, or nil if none is attached.
func (c *Context) Attached(l Layer) any {
	if a := c.layers[l].Load(); a != nil {
		return a.v
	}
	return nil
}

// HandlerFunc is the code invoked by an incoming remote service request. The
// endpoint is the link's receiving end (carrying any bound local data); the
// buffer holds the sender's packed arguments.
type HandlerFunc func(ep *Endpoint, b *buffer.Buffer)

// MethodConfig enables one communication method in a context.
type MethodConfig struct {
	// Name is the registered module name ("tcp", "inproc", "mpl", ...).
	Name string
	// Params configures the module instance.
	Params transport.Params
	// SkipPoll polls this method only every k-th pass (0 or 1: every
	// pass; negative is an error). This is the paper's skip_poll parameter.
	// A value above 1 is pinned exactly as if set by Context.SetSkipPoll.
	SkipPoll int
}

// Options configures a new context.
type Options struct {
	// ID is the context identity; 0 assigns the next process-wide id.
	ID transport.ContextID
	// Process identifies the hosting OS process (defaults to "p<pid>").
	Process string
	// Partition names the context's partition, for partition-scoped methods.
	Partition string
	// Methods lists the enabled methods in descriptor-table preference
	// order. The "local" method is always enabled and listed first. Names
	// resolve in transport.Default, where transport.Register adds modules.
	Methods []MethodConfig
	// Threaded runs incoming RSR handlers on the context's dispatch engine —
	// a sharded pool of worker lanes — instead of inline on the goroutine
	// that detected the message (the Nexus threaded-handler model). Frames
	// are hashed to a lane by destination endpoint, so deliveries to one
	// endpoint stay FIFO while distinct endpoints execute in parallel.
	// There are GOMAXPROCS lanes, each holding up to 256 frames; a full lane
	// blocks the delivering poller. Default: handlers run inline on the
	// detecting goroutine.
	Threaded bool
	// Selector chooses among applicable methods (default FirstApplicable).
	Selector Selector
	// PollOnRSR performs an opportunistic poll pass on every RSR send,
	// mirroring "the polling function will be called at least every time a
	// Nexus operation is performed". Default true; set DisablePollOnRSR to
	// turn it off.
	DisablePollOnRSR bool
	// Observe configures the observability subsystem (latency histograms,
	// RSR tracing). The zero value leaves it off — the default, and the
	// configuration the hot-path overhead contract is written against.
	Observe ObserveConfig
	// Flow enables and tunes credit-based flow control (see FlowConfig). The
	// zero value leaves it off: sends are never charged against credit and
	// the context advertises no windows.
	Flow FlowConfig
	// RPC configures the request/response layer built on top of RSR. Core
	// only carries the switch; the layer itself (internal/rpc) is attached by
	// the facade when Enabled is set, or by calling rpc.Enable directly.
	RPC RPCConfig
	// DebugProfiling opts this context into runtime profiling endpoints:
	// the facade's DebugMux mounts net/http/pprof alongside /debug/nexusz
	// only for contexts built with this set. Off by default — profiling
	// handlers expose stacks and heap contents and belong behind an
	// explicit flag.
	DebugProfiling bool

	// The fields below are this package's test seams. No caller outside its
	// tests sets them, so they are not options; the zero value of each is
	// what every other context runs with.
	//   - registry resolves method names in place of transport.Default, so a
	//     test can substitute fake modules.
	//   - errorLog receives the errors no caller is there to return to (an
	//     unknown handler or endpoint, an undeliverable forward, a poll or
	//     reactor-registration failure), so a test can collect them. Unset,
	//     each is counted in errors.dropped.
	//   - dispatch sizes the threaded engine's lanes and queues.
	//   - maxMessage lowers the per-RSR payload cap (frag.DefaultMaxMessage,
	//     16 MiB). A payload up to the cap is accepted on every link,
	//     fragmented where the selected method's frame limit needs it; a
	//     larger one fails with an error matching transport.ErrTooLarge.
	//   - health and fragTTL shorten the health registry's thresholds and
	//     backoffs and the reassembler's stale-partial TTL.
	//   - disableReactor keeps every module on the portable polling path
	//     where the platform offers a readiness reactor (Linux epoll), so a
	//     test can compare the two detection paths or read the modules'
	//     static poll-cost hints.
	registry       *transport.Registry
	errorLog       func(error)
	dispatch       dispatchConfig
	maxMessage     int
	health         healthConfig
	fragTTL        time.Duration
	disableReactor bool
}

// RPCConfig selects the request/response layer (Options.RPC). The layer
// itself lives in internal/rpc and is attached by the facade (or by calling
// rpc.Enable directly); core only carries the switch.
type RPCConfig struct {
	// Enabled attaches the RPC runtime to the context at construction.
	Enabled bool
}

var nextContextID atomic.Uint64

// Context is an address space participating in multimethod communication.
type Context struct {
	id        transport.ContextID
	process   string
	partition string
	selector  Selector // as configured
	healthSel Selector // selector wrapped with circuit filtering
	pollOnRSR bool
	profiling bool
	errlog    func(error)
	stats     *metrics.Set
	registry  *transport.Registry
	health    *healthRegistry

	// Hot-path counters, resolved once at construction. Set.Counter is a
	// lock plus a map lookup; the RSR send/receive and poll paths hit these
	// on every operation, so they keep direct pointers (the metrics package
	// documents that returned pointers may be cached).
	cRSRSent     *metrics.Counter
	cRSRRecv     *metrics.Counter
	cBytesSent   *metrics.Counter
	cBytesRecv   *metrics.Counter
	cPollPasses  *metrics.Counter
	cRSRFailover *metrics.Counter
	cDropUnkEP   *metrics.Counter // rsr.dropped.unknown_endpoint
	cDropUnkH    *metrics.Counter // rsr.dropped.unknown_handler
	cDropNoRPC   *metrics.Counter // rsr.dropped.no_rpc_layer
	cFwdRelayed  *metrics.Counter // forward.relayed
	cFwdDropped  *metrics.Counter // forward.dropped (every undeliverable relay)
	cFwdTTL      *metrics.Counter // forward.ttl_exhausted
	cFwdLoop     *metrics.Counter // forward.loop_dropped

	// layers holds what the layers built on core attached (Attach), one
	// slot per Layer.
	layers [numLayers]atomic.Pointer[attachment]

	// peerGen counts peer-table mutations made through
	// Refresh/RemovePeerTable so lightweight startpoint links can notice
	// their cached resolution went stale; relayTTL is the hop budget stamped
	// on mesh-routed frames (forward.go).
	peerGen  atomic.Uint64
	relayTTL byte

	// Bulk-data path state (see bulk.go): the payload cap, the receive-side
	// reassembler, the fragmented-message id generator, the size hint the
	// SizeAware selector reads, and the frag.* counters.
	maxMsg         int
	frags          *frag.Reassembler
	nextMsgID      atomic.Uint64
	selSize        atomic.Int64
	cFragMsgs      *metrics.Counter // frag.messages.sent
	cFragTx        *metrics.Counter // frag.fragments.sent
	cFragRx        *metrics.Counter // frag.fragments.recv
	cFragAssembled *metrics.Counter // frag.assembled
	cFragExpired   *metrics.Counter // frag.expired
	cFragDup       *metrics.Counter // frag.duplicates
	cFragDropped   *metrics.Counter // frag.dropped (invalid or over-budget)

	// flow is the credit-based flow-control state (nil unless Options.Flow
	// is enabled); the rsr.shed.* counters record messages dropped by class —
	// send side on credit exhaustion, receive side at dispatch admission.
	flow         *flowState
	cShedControl *metrics.Counter // rsr.shed.control (exists for symmetry; stays 0)
	cShedNormal  *metrics.Counter // rsr.shed.normal
	cShedBulk    *metrics.Counter // rsr.shed.bulk

	// The dispatch fast path resolves endpoints and handlers through
	// copy-on-write tables: readers load the current map with one atomic
	// pointer load and never lock; writers (RegisterHandler, NewEndpoint,
	// close paths) copy-mutate-swap under mu. The gate lets table writers
	// wait out in-flight deliveries (see dispatch.go).
	endpoints atomic.Pointer[map[uint64]*Endpoint]
	handlers  atomic.Pointer[map[string]HandlerFunc]
	gate      dispatchGate

	// dispatcher is the threaded-mode worker pool (nil when not threaded).
	// Set once at construction, before any frame can arrive.
	dispatcher *dispatcher

	// obs is the observability state (see observe.go). Hot paths gate on
	// one atomic load of obs.mode; with observability off that load-and-
	// branch is the entire cost.
	obs obsvState

	// rx is the readiness reactor (nil off-Linux, when disableReactor is
	// set, or when construction failed); ready is the bitmap its waiter
	// goroutine sets — bit i belongs to the i-th reactive module — and the
	// polling loop consumes with one atomic swap per pass. nextReadyBit is
	// guarded by mu.
	rx           *reactor.Reactor
	ready        atomic.Uint64
	nextReadyBit int

	mu         sync.RWMutex
	modules    []*moduleState
	byMethod   map[string]*moduleState
	advertised *transport.Table
	nextEP     uint64
	conns      map[connKey]*sharedConn
	links      map[linkKey]*link // shared per-destination links (linkTo)
	peerTables map[transport.ContextID]*transport.Table
	forwarder  bool
	closed     bool

	pollMu   sync.Mutex
	pollPass uint64 // guarded by pollMu
}

type moduleState struct {
	name   string
	module transport.Module
	desc   *transport.Descriptor

	// reactive marks a module on readiness-driven detection; readyBit is its
	// bit in the context's readiness bitmap. Both are set before the module
	// joins c.modules and never change afterwards.
	reactive bool
	readyBit uint64
	// hot is the remaining grace passes during which a reactive module is
	// probed directly instead of waiting for a kernel readiness edge. Reset
	// to reactiveHotPasses whenever a poll shows activity; decays by one on
	// each empty probe. While hot, rd suspends the module's kernel watch so
	// arriving data does not wake the reactor waiter the poller has already
	// replaced. Guarded by the context's pollMu.
	hot int
	// cold counts consecutive passes skipped while reactive with no edge;
	// every reactiveColdProbe-th pass probes the module anyway, bounding the
	// latency of a starved waiter-thread notification. Guarded by pollMu.
	cold int
	// rd is the module's readiness adapter (nil unless reactive).
	rd *moduleReadiness

	// skip and countdown implement skip_poll; both are guarded by the
	// context's pollMu except for reads through the atomic skipAtomic.
	// pinned (same guard) marks a value set manually via SetSkipPoll:
	// automatic tuners (AutoSkipPoll, StartAdaptiveSkipPoll) leave pinned
	// modules alone until UnpinSkipPoll.
	skip       int
	countdown  int
	pinned     bool
	skipAtomic atomic.Int64

	// consecPollErrs and pollDisabled implement receive-path supervision:
	// after healthConfig.pollFailureThreshold consecutive Poll errors the
	// module leaves the polling rotation and re-probes on the health
	// registry's backoff schedule. Both guarded by the context's pollMu.
	consecPollErrs int
	pollDisabled   bool

	polls    *metrics.Counter
	frames   *metrics.Counter
	pollErrs *metrics.Counter

	// maxMsg is the largest frame the module's connections accept (from
	// transport.SizeLimiter; wire.MaxFrameLen when unlimited). Resolved once
	// at enableMethod so the send fast path compares against a plain int.
	maxMsg int

	// lat holds the method's per-stage latency histograms; allocated at
	// enableMethod so hot paths can record through a never-nil pointer.
	lat *obsv.StageSet
	// pollStart is the wall-clock nanosecond at which the in-progress Poll
	// call on this module began (0 when none), written by the polling loop
	// and read by dispatch to attribute detection latency to traced frames
	// the poll delivers.
	pollStart atomic.Int64
}

// NewContext creates a context and initializes its communication modules.
func NewContext(opts Options) (*Context, error) {
	id := opts.ID
	if id == 0 {
		id = transport.ContextID(nextContextID.Add(1))
	}
	proc := opts.Process
	if proc == "" {
		proc = fmt.Sprintf("p%d", os.Getpid())
	}
	reg := opts.registry
	if reg == nil {
		reg = transport.Default
	}
	sel := opts.Selector
	if sel == nil {
		sel = FirstApplicable
	}
	c := &Context{
		id:         id,
		process:    proc,
		partition:  opts.Partition,
		selector:   sel,
		healthSel:  HealthAware(sel),
		pollOnRSR:  !opts.DisablePollOnRSR,
		profiling:  opts.DebugProfiling,
		stats:      metrics.NewSet(),
		registry:   reg,
		byMethod:   make(map[string]*moduleState),
		conns:      make(map[connKey]*sharedConn),
		links:      make(map[linkKey]*link),
		peerTables: make(map[transport.ContextID]*transport.Table),
		advertised: transport.NewTable(),
	}
	eps := make(map[uint64]*Endpoint)
	c.endpoints.Store(&eps)
	hs := make(map[string]HandlerFunc)
	c.handlers.Store(&hs)
	c.health = newHealthRegistry(opts.health, c.stats)
	c.cRSRSent = c.stats.Counter("rsr.sent")
	c.cRSRRecv = c.stats.Counter("rsr.recv")
	c.cBytesSent = c.stats.Counter("bytes.sent")
	c.cBytesRecv = c.stats.Counter("bytes.recv")
	c.cPollPasses = c.stats.Counter("poll.passes")
	c.cRSRFailover = c.stats.Counter("rsr.failover")
	c.cDropUnkEP = c.stats.Counter("rsr.dropped.unknown_endpoint")
	c.cDropUnkH = c.stats.Counter("rsr.dropped.unknown_handler")
	c.cDropNoRPC = c.stats.Counter("rsr.dropped.no_rpc_layer")
	c.cFwdRelayed = c.stats.Counter("forward.relayed")
	c.cFwdDropped = c.stats.Counter("forward.dropped")
	c.cFwdTTL = c.stats.Counter("forward.ttl_exhausted")
	c.cFwdLoop = c.stats.Counter("forward.loop_dropped")
	c.relayTTL = DefaultRelayTTL
	c.maxMsg = frag.DefaultMaxMessage
	if opts.maxMessage > 0 {
		c.maxMsg = opts.maxMessage
	}
	c.frags = frag.New(frag.Config{MaxMessage: c.maxMsg, TTL: opts.fragTTL})
	c.cFragMsgs = c.stats.Counter("frag.messages.sent")
	c.cFragTx = c.stats.Counter("frag.fragments.sent")
	c.cFragRx = c.stats.Counter("frag.fragments.recv")
	c.cFragAssembled = c.stats.Counter("frag.assembled")
	c.cFragExpired = c.stats.Counter("frag.expired")
	c.cFragDup = c.stats.Counter("frag.duplicates")
	c.cFragDropped = c.stats.Counter("frag.dropped")
	c.cShedControl = c.stats.Counter("rsr.shed.control")
	c.cShedNormal = c.stats.Counter("rsr.shed.normal")
	c.cShedBulk = c.stats.Counter("rsr.shed.bulk")
	if opts.Flow.Enabled {
		c.flow = newFlowState(opts.Flow, c.stats)
	}
	if opts.Threaded {
		c.dispatcher = newDispatcher(c, opts.dispatch)
	}
	c.obs.ids = obsv.NewIDGen(uint64(id)<<32 ^ uint64(time.Now().UnixNano()))
	if opts.Observe.Trace {
		c.EnableTracing(0)
	} else if opts.Observe.Stats {
		c.EnableStats()
	}
	c.errlog = opts.errorLog
	if c.errlog == nil {
		dropped := c.stats.Counter("errors.dropped")
		c.errlog = func(error) { dropped.Inc() }
	}

	c.rx = newReactor(opts)

	configs := opts.Methods
	if !hasMethod(configs, "local") {
		configs = append([]MethodConfig{{Name: "local"}}, configs...)
	}
	for _, mc := range configs {
		if err := c.enableMethod(reg, mc); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

func hasMethod(configs []MethodConfig, name string) bool {
	for _, mc := range configs {
		if mc.Name == name {
			return true
		}
	}
	return false
}

func (c *Context) enableMethod(reg *transport.Registry, mc MethodConfig) error {
	if mc.SkipPoll < 0 {
		return fmt.Errorf("%w: %s: skip_poll=%d: want >= 0", transport.ErrBadParam, mc.Name, mc.SkipPoll)
	}
	mc.SkipPoll = max(mc.SkipPoll, 1)
	mod, err := reg.New(mc.Name, mc.Params)
	if err != nil {
		return err
	}
	ms := &moduleState{
		name:     mc.Name,
		module:   mod,
		skip:     mc.SkipPoll,
		pinned:   mc.SkipPoll > 1,
		polls:    c.stats.Counter("poll." + mc.Name),
		frames:   c.stats.Counter("frames." + mc.Name),
		pollErrs: c.stats.Counter("poll.errors." + mc.Name),
		lat:      &obsv.StageSet{},
		maxMsg:   wire.MaxFrameLen(),
	}
	if sl, ok := mod.(transport.SizeLimiter); ok {
		if n := sl.MaxMessage(); n > 0 && n < ms.maxMsg {
			ms.maxMsg = n
		}
	}
	ms.skipAtomic.Store(int64(mc.SkipPoll))
	desc, err := mod.Init(transport.Env{
		Context:   c.id,
		Process:   c.process,
		Partition: c.partition,
		Params:    mc.Params,
		Sink:      &methodSink{ctx: c, ms: ms},
	})
	if err != nil {
		return fmt.Errorf("core: enabling method %q: %w", mc.Name, err)
	}
	ms.desc = desc
	// Offer the reactor (no-op without one, or when the module declines);
	// before registration, so ms.reactive is published with the module.
	c.attachReactive(ms)

	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.byMethod[mc.Name]; dup {
		mod.Close()
		return fmt.Errorf("core: method %q enabled twice", mc.Name)
	}
	c.modules = append(c.modules, ms)
	c.byMethod[mc.Name] = ms
	c.registerStageSet(mc.Name, ms.lat)
	if desc != nil {
		c.advertised.Add(*desc)
	}
	return nil
}

// EnableMethod enables an additional communication method at runtime — the
// paper's "a new communication object can be constructed at any time" on the
// module level. Together with DisableMethod it lets a context drop a dead
// substrate and bring it (or a replacement) back later: the new descriptor
// joins the advertised table, and peers that refresh their tables can select
// the method again.
func (c *Context) EnableMethod(mc MethodConfig) error {
	c.mu.RLock()
	reg := c.registry
	closed := c.closed
	c.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	return c.enableMethod(reg, mc)
}

// methodSink tags inbound frames with the module that delivered them, for
// per-method statistics, before handing them to the context dispatcher.
type methodSink struct {
	ctx *Context
	ms  *moduleState
}

func (s *methodSink) Deliver(frame []byte) {
	s.ms.frames.Inc()
	s.ctx.dispatch(s.ms, frame)
}

// ID reports the context identity.
func (c *Context) ID() transport.ContextID { return c.id }

// Process reports the hosting process identity.
func (c *Context) Process() string { return c.process }

// Partition reports the context's partition.
func (c *Context) Partition() string { return c.partition }

// DebugProfiling reports whether the context was built with
// Options.DebugProfiling — the facade's DebugMux mounts the pprof handlers
// only when some served context opted in.
func (c *Context) DebugProfiling() bool { return c.profiling }

// Stats exposes the context's enquiry counters.
func (c *Context) Stats() *metrics.Set { return c.stats }

// AdvertisedTable returns a copy of the context's communication descriptor
// table — the table every startpoint created here carries.
func (c *Context) AdvertisedTable() *transport.Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.advertised.Clone()
}

// Advertises reports whether t holds the descriptors of the context's
// advertised table, in order, without copying the advertised table as
// AdvertisedTable does.
func (c *Context) Advertises(t *transport.Table) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.advertised.Equal(t)
}

// SetAdvertisedTable replaces the context's descriptor table. Used by
// forwarding setups to advertise a forwarder's address in place of the
// context's own, and by users exercising manual method control.
func (c *Context) SetAdvertisedTable(t *transport.Table) {
	sealed := transport.NewTable(t.Entries...)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.advertised = sealed
}

// RegisterHandler installs a handler under the given name. Incoming RSRs
// name the handler to invoke. The handler table is copy-on-write: the swap
// costs one map copy here so that every dispatch costs zero locks.
func (c *Context) RegisterHandler(name string, fn HandlerFunc) {
	c.mu.Lock()
	old := *c.handlers.Load()
	next := make(map[string]HandlerFunc, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[name] = fn
	c.handlers.Store(&next)
	c.mu.Unlock()
}

// UnregisterHandler removes a named handler. When it returns, no frame will
// be delivered to the removed handler anymore: the new handler table is
// published and the dispatch gate is drained, waiting out every delivery
// that could have resolved the old table (including handlers still running
// on dispatch lanes). Because of that wait, UnregisterHandler must not be
// called synchronously from inside a handler of the same context — do it
// from outside, or from a separate goroutine.
func (c *Context) UnregisterHandler(name string) {
	c.mu.Lock()
	old := *c.handlers.Load()
	next := make(map[string]HandlerFunc, len(old))
	for k, v := range old {
		if k != name {
			next[k] = v
		}
	}
	c.handlers.Store(&next)
	c.mu.Unlock()
	c.gate.drain()
}

// RegisterPeerTable records another context's descriptor table, used to
// resolve lightweight startpoints (which travel without tables) and to route
// forwarded frames. The context keeps t itself, shared with the links that
// resolve through it (and, under gossip, with the registry record it came
// from): do not modify a table after passing it in. PeerTable returns a copy
// to edit.
func (c *Context) RegisterPeerTable(t *transport.Table) {
	if t.Len() == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.peerTables[t.Entries[0].Context] = t
}

// RefreshPeerTable registers or replaces a peer's descriptor table at
// runtime and invalidates everything that cached the old one: the peer-table
// generation moves so lightweight startpoint links re-resolve, and the
// health generation moves so every link's published binding goes stale and
// its next send re-runs selection. This is the hook gossip-driven descriptor distribution rides —
// a method added or removed on a live peer propagates into every local
// link's next send through the same mechanism a circuit trip uses. As with
// RegisterPeerTable, the context keeps t itself: do not modify it afterwards.
func (c *Context) RefreshPeerTable(t *transport.Table) {
	if t.Len() == 0 {
		return
	}
	c.mu.Lock()
	c.peerTables[t.Entries[0].Context] = t
	c.mu.Unlock()
	c.peerGen.Add(1)
	c.health.bump()
}

// RemovePeerTable forgets a peer's descriptor table (the peer left or was
// declared crashed). Lightweight links that resolved through it fail their
// next send with ErrNoTable instead of sending on stale descriptors.
func (c *Context) RemovePeerTable(id transport.ContextID) {
	c.mu.Lock()
	_, had := c.peerTables[id]
	delete(c.peerTables, id)
	c.mu.Unlock()
	if had {
		c.peerGen.Add(1)
		c.health.bump()
	}
}

// PeerTable returns a copy of the registered table for a context, or nil.
func (c *Context) PeerTable(id transport.ContextID) *transport.Table {
	if t := c.peerTable(id); t != nil {
		return t.Clone()
	}
	return nil
}

// HasPeerTable reports whether a table is registered for a context.
func (c *Context) HasPeerTable(id transport.ContextID) bool {
	return c.peerTable(id) != nil
}

// peerTable returns the registered table for a context itself, or nil. The
// table is shared: callers read it and never modify it.
func (c *Context) peerTable(id transport.ContextID) *transport.Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.peerTables[id]
}

// dispatch decodes an inbound frame and routes it to a handler (or onward,
// if this context is a forwarder). dispatch borrows the frame: the caller
// (the delivering module, or a local send) may recycle it as soon as
// dispatch returns, so nothing here retains frame-aliasing storage — the
// threaded engine moves the bytes into pooled storage before queueing, and
// inline handlers run to completion inside this call. The endpoint-handler
// fast path performs zero mutex acquisitions and zero payload copies: the
// frame decodes onto the stack, the tables resolve through atomic pointer
// loads, and the handler's buffer aliases the frame bytes.
func (c *Context) dispatch(ms *moduleState, frame []byte) {
	var f wire.Frame // stack-decoded: one frame arrives per delivery
	if err := wire.DecodeInto(&f, frame); err != nil {
		c.errlog(fmt.Errorf("core: context %d: bad frame: %w", c.id, err))
		return
	}
	if f.DestContext != uint64(c.id) {
		c.forward(&f, frame)
		return
	}
	if f.Type == wire.TypeControl && f.HasCredit() {
		// Standalone credit frame (grant or probe): protocol traffic, not an
		// RSR — consumed here, never queued, never shed.
		c.handleCreditFrame(&f)
		return
	}
	if c.flow != nil {
		if f.HasCredit() && ms != nil {
			// Grant piggybacked on reverse traffic: the credited method is the
			// one the frame arrived on (both ends name modules identically).
			c.flow.bank.Refill(f.SrcContext, ms.name, f.CreditBytes, f.CreditFrames)
		}
		c.flowConsume(ms, &f, len(frame))
	}
	c.cRSRRecv.Inc()
	c.cBytesRecv.Add(uint64(len(frame)))
	if c.obs.mode.Load()&obsTrace != 0 && f.HasTrace() && ms != nil {
		// Poll-stage trace event: detection latency, measured from the start
		// of the module Poll call that surfaced this frame. A module that
		// delivers outside a poll pass (local, on the sender's goroutine)
		// reports zero.
		now := time.Now()
		var det time.Duration
		if start := ms.pollStart.Load(); start != 0 {
			det = time.Duration(now.UnixNano() - start)
		}
		c.recordEvent(obsv.Event{
			Time:     now,
			Trace:    obsv.TraceID(f.Trace),
			Stage:    obsv.StagePoll,
			Method:   ms.name,
			Peer:     f.SrcContext,
			Endpoint: f.DestEndpoint,
			Handler:  f.Handler,
			Dur:      det,
		})
	}
	if f.HasFrag() {
		// A fragment of a bulk message: buffer it; the completing fragment
		// re-enters the delivery path with the reassembled payload. The
		// poll-stage trace event above already fired per fragment, so a
		// single trace ID spans the whole bulk transfer.
		c.handleFragment(ms, &f)
		return
	}
	if c.dispatcher != nil {
		c.dispatcher.enqueue(ms, &f, frame)
		return
	}
	c.deliver(ms, &f)
}

// deliver resolves a decoded frame against the copy-on-write tables and
// invokes the handler. It runs bracketed by the dispatch gate, which is what
// UnregisterHandler drains to guarantee no delivery resolves a stale table
// after it returns.
func (c *Context) deliver(ms *moduleState, f *wire.Frame) {
	parity := c.gate.enter()
	defer c.gate.exit(parity)
	if f.HasRPC() {
		// Request/response traffic routes by its correlation extension, not
		// by endpoint/handler lookup: the runtime attached as LayerRPC
		// resolves the call and invokes the registered handler itself.
		if a := c.layers[LayerRPC].Load(); a != nil && a.intake != nil {
			a.intake.Intake(*f)
			return
		}
		c.cDropNoRPC.Inc()
		c.errlog(fmt.Errorf("core: context %d: rpc frame (call %d kind %d) but no rpc layer attached",
			c.id, f.RPC.Call, f.RPC.Kind))
		return
	}
	ep := (*c.endpoints.Load())[f.DestEndpoint]
	var fn HandlerFunc
	if f.Handler != "" {
		fn = (*c.handlers.Load())[f.Handler]
	}
	if ep == nil {
		c.cDropUnkEP.Inc()
		c.errlog(fmt.Errorf("core: context %d: endpoint %d: %w", c.id, f.DestEndpoint, ErrUnknownEndpoint))
		return
	}
	if fn == nil {
		fn = ep.handler
	}
	if fn == nil {
		c.cDropUnkH.Inc()
		c.errlog(fmt.Errorf("core: context %d: handler %q: %w", c.id, f.Handler, ErrUnknownHandler))
		return
	}
	b, err := buffer.FromBytes(f.Payload)
	if err != nil {
		c.errlog(fmt.Errorf("core: context %d: bad payload: %w", c.id, err))
		return
	}
	mode := c.obs.mode.Load()
	if mode&obsStats == 0 {
		fn(ep, b)
		return
	}
	t0 := time.Now()
	fn(ep, b)
	d := time.Since(t0)
	if ms != nil {
		ms.lat.Stage(obsv.StageHandler).Record(d)
	}
	if mode&obsTrace != 0 && f.HasTrace() {
		c.recordEvent(obsv.Event{
			Trace:    obsv.TraceID(f.Trace),
			Stage:    obsv.StageHandler,
			Method:   msName(ms),
			Peer:     f.SrcContext,
			Endpoint: f.DestEndpoint,
			Handler:  f.Handler,
			Dur:      d,
		})
	}
}

// msName reports a module state's method name, tolerating nil (frames can
// reach deliver without a known source module, e.g. in tests).
func msName(ms *moduleState) string {
	if ms == nil {
		return ""
	}
	return ms.name
}

// Closed reports whether the context has been closed.
func (c *Context) Closed() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.closed
}

// Close shuts down every module and connection. Endpoints become invalid.
func (c *Context) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	mods := c.modules
	conns := c.conns
	c.conns = make(map[connKey]*sharedConn)
	c.mu.Unlock()

	var errs []string
	for _, sc := range conns {
		if err := sc.conn.Close(); err != nil {
			errs = append(errs, err.Error())
		}
	}
	for _, ms := range mods {
		if err := ms.module.Close(); err != nil {
			errs = append(errs, err.Error())
		}
	}
	if c.rx != nil {
		// After module Close: each module removes its fds from the reactor
		// before closing its sockets, which requires the reactor alive.
		c.rx.Close()
	}
	if c.dispatcher != nil {
		// Lane workers exit on their next receive; frames still queued are
		// abandoned, handlers already running finish on their own.
		c.dispatcher.stop()
	}
	if len(errs) > 0 {
		return fmt.Errorf("core: closing context %d: %s", c.id, strings.Join(errs, "; "))
	}
	return nil
}

// connKey identifies a shareable communication object: same method, same
// remote context, same descriptor attributes. attrs is the descriptor's
// attribute block (Descriptor.AttrBlock), which a sealed descriptor holds
// as it is, so making the key copies and encodes nothing.
type connKey struct {
	method string
	ctx    transport.ContextID
	attrs  string
}

func keyFor(d transport.Descriptor) connKey {
	return connKey{method: d.Method, ctx: d.Context, attrs: d.AttrBlock()}
}

// sharedConn is a reference-counted communication object shared among
// startpoints that reference the same context with the same method.
type sharedConn struct {
	key  connKey
	conn transport.Conn
	refs int // guarded by the owning context's mu
}

// acquireConn returns a shared communication object for the descriptor,
// dialing one if none exists. tid attributes the dial to the RSR that forced
// it (the first send over a link pays the dial; steady-state sends hit the
// cache above and never reach the instrumented section).
func (c *Context) acquireConn(d transport.Descriptor, tid obsv.TraceID) (*sharedConn, error) {
	key := keyFor(d)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if sc, ok := c.conns[key]; ok {
		sc.refs++
		c.mu.Unlock()
		return sc, nil
	}
	ms := c.byMethod[d.Method]
	c.mu.Unlock()
	if ms == nil {
		return nil, fmt.Errorf("core: %w: %q", ErrUnknownMethod, d.Method)
	}
	mode := c.obs.mode.Load()
	var t0 time.Time
	if mode&obsStats != 0 {
		t0 = time.Now()
	}
	conn, err := ms.module.Dial(d)
	if err != nil {
		return nil, err
	}
	if mode&obsStats != 0 {
		dur := time.Since(t0)
		ms.lat.Stage(obsv.StageDial).Record(dur)
		if mode&obsTrace != 0 && !tid.IsZero() {
			c.recordEvent(obsv.Event{
				Trace:  tid,
				Stage:  obsv.StageDial,
				Method: d.Method,
				Peer:   uint64(d.Context),
				Dur:    dur,
			})
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		conn.Close()
		return nil, ErrClosed
	}
	if sc, ok := c.conns[key]; ok { // lost the race; share the winner
		conn.Close()
		sc.refs++
		return sc, nil
	}
	sc := &sharedConn{key: key, conn: conn, refs: 1}
	c.conns[key] = sc
	return sc, nil
}

// releaseConn drops one reference, closing the connection when unused. The
// map delete is identity-guarded: an invalidated connection may already have
// been replaced under the same key by a fresh redial.
func (c *Context) releaseConn(sc *sharedConn) {
	if sc == nil {
		return
	}
	c.mu.Lock()
	sc.refs--
	var toClose transport.Conn
	if sc.refs <= 0 {
		if cur, ok := c.conns[sc.key]; ok && cur == sc {
			delete(c.conns, sc.key)
		}
		toClose = sc.conn
	}
	c.mu.Unlock()
	if toClose != nil {
		toClose.Close()
	}
}

// invalidateConn drops a communication object from the shared-connection
// cache after a send failure, so the next acquire dials a fresh connection
// instead of inheriting the poisoned one. Holders of outstanding references
// keep using (and eventually releasing) the old object; they learn of its
// death from their own send errors.
func (c *Context) invalidateConn(sc *sharedConn) {
	if sc == nil {
		return
	}
	c.mu.Lock()
	if cur, ok := c.conns[sc.key]; ok && cur == sc {
		delete(c.conns, sc.key)
	}
	c.mu.Unlock()
}

// moduleFor returns the module state for a method name.
func (c *Context) moduleFor(name string) *moduleState {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.byMethod[name]
}

// openConns reports the number of live shared communication objects
// (an enquiry hook used by tests and diagnostics).
func (c *Context) openConns() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.conns)
}
