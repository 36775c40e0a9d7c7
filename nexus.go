// Package nexus is a Go implementation of the multimethod communication
// architecture of Foster, Geisler, Kesselman and Tuecke, "Multimethod
// Communication for High-Performance Metacomputing Applications"
// (Supercomputing '96) — the communication core of the Nexus runtime system.
//
// Programs communicate through communication links: a Startpoint in one
// context is bound to an Endpoint in another, and a single one-sided
// operation — the remote service request (RSR) — moves a typed Buffer across
// the link and invokes a handler at the far end. The method used for each
// link (shared memory, TCP, UDP, a partition-scoped fabric, ...) is chosen
// per link, automatically or manually, from the communication descriptor
// table that travels with every startpoint; detection of incoming traffic
// across all enabled methods is unified in one polling loop with per-method
// skip_poll control, readiness-driven detection of socket-backed methods
// (Linux epoll), and forwarding.
//
// This package is the public facade: it re-exports the core API
// (internal/core), the typed buffers (internal/buffer), the transport
// configuration types (internal/transport), single-process machine bootstrap
// (internal/cluster), the mini-MPI layered on the core (internal/mpi), the
// coupled-climate mini-app (internal/climate), and the resource database
// (internal/resource).
//
// A minimal program:
//
//	ctx, _ := nexus.NewContext(nexus.Options{
//		Methods: []nexus.MethodConfig{{Name: "tcp"}},
//	})
//	defer ctx.Close()
//	ep := ctx.NewEndpoint(nexus.WithHandler(func(ep *nexus.Endpoint, b *nexus.Buffer) {
//		fmt.Println("got:", b.String())
//	}))
//	sp := ep.NewStartpoint() // travels to other contexts inside RSRs
//	b := nexus.NewBuffer(64)
//	b.PutString("hello")
//	_ = sp.RSR("", b)
package nexus

import (
	"net/http"
	"net/http/pprof"

	"nexus/internal/buffer"
	"nexus/internal/climate"
	"nexus/internal/cluster"
	"nexus/internal/core"
	"nexus/internal/mpi"
	"nexus/internal/names"
	"nexus/internal/obsv"
	"nexus/internal/pipeline"
	"nexus/internal/resource"
	"nexus/internal/rpc"
	"nexus/internal/transport"

	// Standard communication modules register themselves with the default
	// registry when the facade is imported.
	_ "nexus/internal/simnet"
	_ "nexus/internal/transport/inproc"
	_ "nexus/internal/transport/local"
	_ "nexus/internal/transport/secure"
	_ "nexus/internal/transport/shm"
	_ "nexus/internal/transport/tcp"
	_ "nexus/internal/transport/udp" // udp and rudp
)

// Core communication types (internal/core).
type (
	// Context is an address space hosting endpoints, handlers, and
	// communication modules.
	Context = core.Context
	// Options configures a new context.
	Options = core.Options
	// MethodConfig enables one communication method in a context.
	MethodConfig = core.MethodConfig
	// Endpoint is the receiving end of a communication link.
	Endpoint = core.Endpoint
	// EndpointOption configures a new endpoint.
	EndpointOption = core.EndpointOption
	// Startpoint is the sending end of one or more communication links.
	Startpoint = core.Startpoint
	// HandlerFunc is invoked by incoming remote service requests.
	HandlerFunc = core.HandlerFunc
	// Selector chooses among applicable communication methods.
	Selector = core.Selector
	// MethodInfo is the per-method enquiry record.
	MethodInfo = core.MethodInfo
	// HealthInfo is one (method, peer) circuit's state in a health snapshot.
	HealthInfo = core.HealthInfo
	// CircuitState is a health circuit's position in the breaker state
	// machine.
	CircuitState = core.CircuitState
	// FlowConfig enables credit-based per-link flow control (Options.Flow).
	FlowConfig = core.FlowConfig
	// Class is an RSR's priority class, carried in the wire header and used
	// by the dispatch lanes and the load-shedding policy (Startpoint.SetClass).
	Class = core.Class
	// ObserveSnapshot is the typed observability snapshot returned by
	// Context.Observe: counters, per-(method, stage) latency percentiles,
	// and trace-ring occupancy.
	ObserveSnapshot = obsv.Snapshot
	// LatencySummary is one (method, stage) row of an ObserveSnapshot.
	LatencySummary = obsv.Latency
	// TraceEvent is one buffered RSR trace event (Context.TraceDump).
	TraceEvent = obsv.Event
	// TraceID is the 16-byte trace/span identifier carried in traced RSR
	// wire headers across contexts.
	TraceID = obsv.TraceID
	// TraceStage identifies the instrumented pipeline stage of a trace
	// event or latency row.
	TraceStage = obsv.Stage
)

// Instrumented RSR pipeline stages.
const (
	// StageSend is the transport Send call on the sending context.
	StageSend = obsv.StageSend
	// StageDial is connection establishment for a link's first RSR.
	StageDial = obsv.StageDial
	// StagePoll is detection: module poll cost in histograms, detection
	// latency in trace events.
	StagePoll = obsv.StagePoll
	// StageQueueWait is time spent queued in a threaded dispatch lane.
	StageQueueWait = obsv.StageQueueWait
	// StageHandler is handler execution at the receiving context.
	StageHandler = obsv.StageHandler
	// StageRelay is the re-send performed by a forwarding context.
	StageRelay = obsv.StageRelay
)

// DebugHandler returns the opt-in /debug/nexusz HTTP handler rendering live
// observability snapshots of the given contexts (text by default,
// ?format=json for JSON). It is never registered automatically:
//
//	http.Handle("/debug/nexusz", nexus.DebugHandler(ctx))
func DebugHandler(ctxs ...*Context) http.Handler {
	return obsv.Handler(func() []obsv.Snapshot {
		snaps := make([]obsv.Snapshot, 0, len(ctxs))
		for _, c := range ctxs {
			snaps = append(snaps, c.Observe())
		}
		return snaps
	})
}

// DebugMux returns a mux serving /debug/nexusz for the given contexts. When
// at least one of them was built with Options.DebugProfiling, the standard
// net/http/pprof handlers are mounted alongside under /debug/pprof/;
// otherwise those paths 404 — profiling exposure is an explicit per-context
// opt-in, never a side effect of serving observability:
//
//	go http.ListenAndServe("localhost:6060", nexus.DebugMux(ctx))
func DebugMux(ctxs ...*Context) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/debug/nexusz", DebugHandler(ctxs...))
	for _, c := range ctxs {
		if c.DebugProfiling() {
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			break
		}
	}
	return mux
}

// Circuit-breaker states reported by Context.HealthSnapshot.
const (
	CircuitClosed   = core.CircuitClosed
	CircuitOpen     = core.CircuitOpen
	CircuitHalfOpen = core.CircuitHalfOpen
)

// RSR priority classes. Control preempts normal traffic on send queues and
// dispatch lanes and is never shed; bulk is shed first under overload.
const (
	ClassNormal  = core.ClassNormal
	ClassControl = core.ClassControl
	ClassBulk    = core.ClassBulk
)

// NewContext creates a context and initializes its modules. When
// Options.RPC.Enabled is set, the request/response layer (internal/rpc) is
// attached before the context is returned: RegisterRPC, Call, and CallStream
// work immediately. A gossip membership agent is attached afterwards, with
// AttachCluster.
func NewContext(opts Options) (*Context, error) {
	c, err := core.NewContext(opts)
	if err != nil {
		return nil, err
	}
	if opts.RPC.Enabled {
		rpc.Enable(c)
	}
	return c, nil
}

// Core constructors, selection policies, and helpers.
var (
	// WithHandler sets an endpoint's default handler.
	WithHandler = core.WithHandler
	// WithData binds a local address (user data) to an endpoint.
	WithData = core.WithData
	// FirstApplicable is the paper's automatic selection rule.
	FirstApplicable core.Selector = core.FirstApplicable
	// CheapestPoll selects the applicable method with the lowest poll cost
	// (observed mean when stats are enabled, module hint otherwise).
	CheapestPoll core.Selector = core.CheapestPoll
	// FastestObserved selects the applicable method with the lowest
	// observed mean send latency, falling back to FirstApplicable until
	// the histograms have data.
	FastestObserved core.Selector = core.FastestObserved
	// PreferOrder builds a programmer-directed selection policy.
	PreferOrder = core.PreferOrder
	// SizeAware builds a selection policy that routes small RSRs through one
	// selector and bulk RSRs through another, preferring methods that carry
	// the message in a single frame.
	SizeAware = core.SizeAware
	// HealthAware wraps a selector so it skips methods whose circuit is
	// open in the sending context's health registry.
	HealthAware = core.HealthAware
	// TransferStartpoint copies a startpoint into another context.
	TransferStartpoint = core.TransferStartpoint
	// RewriteForForwarder points a table's method entry at a forwarder.
	RewriteForForwarder = core.RewriteForForwarder
)

// Core errors.
var (
	ErrClosed             = core.ErrClosed
	ErrNoApplicableMethod = core.ErrNoApplicableMethod
	ErrNoTable            = core.ErrNoTable
	ErrUnknownHandler     = core.ErrUnknownHandler
	ErrUnknownEndpoint    = core.ErrUnknownEndpoint
	ErrUnknownMethod      = core.ErrUnknownMethod
	// ErrTooLarge matches (errors.Is) every size-limit rejection: an RSR
	// payload over the context's 16 MiB message cap, or a frame over the
	// selected method's limit on a direct transport send.
	ErrTooLarge = transport.ErrTooLarge
	// ErrBadParam matches (errors.Is) every rejected method parameter; the
	// error names the method and the key.
	ErrBadParam = transport.ErrBadParam
	// ErrNoCredit reports an RSR refused by credit-based flow control: the
	// link's receive window is exhausted and the send's class or the
	// configured block timeout did not permit waiting for a refill.
	ErrNoCredit = core.ErrNoCredit
	// ErrDeadline matches (errors.Is) every deadline expiry in the stack —
	// RPC calls, name-service requests, MPI receives — and also matches
	// context.DeadlineExceeded, so standard-library code composes.
	ErrDeadline = core.ErrDeadline
)

// Request/response RPC and streaming layered on RSR (internal/rpc). Enable
// with Options.RPC, register server methods with RegisterRPC, and call with
// Call (unary, returns a Future) or CallStream (ordered chunk stream).
type (
	// RPCConfig enables the request/response layer (Options.RPC).
	RPCConfig = core.RPCConfig
	// Future is the rendezvous for one unary RPC (Call).
	Future = rpc.Future
	// Stream is the rendezvous for one streaming RPC (CallStream).
	Stream = rpc.Stream
	// RPCRequest is one inbound call as seen by an RPCHandler.
	RPCRequest = rpc.Request
	// Responder completes one inbound call: Reply, Error, or Send.../End.
	Responder = rpc.Responder
	// RPCHandler serves inbound calls for one registered method name.
	RPCHandler = rpc.Handler
	// CallOptions tunes one call's deadline.
	CallOptions = rpc.CallOptions
	// RemoteError is a handler failure reported by the serving context.
	RemoteError = rpc.RemoteError
)

// RPC entry points and errors.
var (
	// Call starts a unary request on a startpoint whose owning context has
	// the RPC layer attached.
	Call = rpc.Call
	// CallStream starts a streaming request.
	CallStream = rpc.CallStream
	// RegisterRPC installs the handler serving one RPC method name.
	RegisterRPC = rpc.Register
	// EnableRPC attaches the RPC layer to an already-built context (for
	// contexts not constructed through nexus.NewContext, e.g. machine
	// bootstrap) and returns it; on a context that has the layer, it returns
	// the runtime already attached.
	EnableRPC = rpc.Enable
	// ErrRPCNotEnabled reports an RPC operation on a context without the
	// layer attached.
	ErrRPCNotEnabled = rpc.ErrNotEnabled
	// ErrCallCanceled reports a call abandoned by Future.Cancel or
	// Stream.Cancel.
	ErrCallCanceled = rpc.ErrCanceled
	// ErrAlreadyReplied reports a second completion on one Responder.
	ErrAlreadyReplied = rpc.ErrAlreadyReplied
)

// Typed message buffers (internal/buffer).
type (
	// Buffer is a typed pack/unpack message buffer.
	Buffer = buffer.Buffer
	// Format identifies a buffer's byte order.
	Format = buffer.Format
)

// Buffer constructors.
var (
	// NewBuffer returns an empty buffer in native format.
	NewBuffer = buffer.New
	// BufferFromBytes wraps an encoded payload for unpacking.
	BufferFromBytes = buffer.FromBytes
)

// Transport configuration types (internal/transport).
type (
	// Descriptor describes how a context is reached by one method.
	Descriptor = transport.Descriptor
	// DescriptorTable is the ordered communication descriptor table.
	DescriptorTable = transport.Table
	// Params carries module configuration values.
	Params = transport.Params
	// ContextID identifies a context within a computation.
	ContextID = transport.ContextID
	// Module is the communication-method interface; register custom
	// methods with RegisterModule.
	Module = transport.Module
	// ModuleFactory constructs a module from its checked parameters.
	ModuleFactory = transport.Factory
	// ModuleParam declares one parameter a module reads.
	ModuleParam = transport.Param
	// ModuleValues is a parameter set checked against a declaration.
	ModuleValues = transport.Values
	// ModuleEnv is the environment a module is initialized with.
	ModuleEnv = transport.Env
	// ModuleConn is an active connection (the paper's communication object).
	ModuleConn = transport.Conn
	// FrameSink receives a module's inbound frames.
	FrameSink = transport.Sink
)

// RegisterModule adds a custom communication method, with the parameters its
// factory reads, to the default registry (the paper's dynamic module loading).
var RegisterModule = transport.Register

// Machine bootstrap (internal/cluster).
type (
	// Machine is a running set of contexts with exchanged tables.
	Machine = cluster.Machine
	// MachineConfig describes a machine.
	MachineConfig = cluster.Config
	// NodeSpec describes one node of a machine.
	NodeSpec = cluster.NodeSpec
)

var (
	// NewMachine boots a machine.
	NewMachine = cluster.New
	// UniformMachine returns n identical nodes in one partition.
	UniformMachine = cluster.Uniform
	// TwoPartitionMachine mirrors the paper's case-study layout.
	TwoPartitionMachine = cluster.TwoPartition
)

// Dynamic cluster membership (internal/cluster): gossip-replicated descriptor
// registry, runtime method add/remove propagation, and the multi-hop relay
// mesh. Attach an agent per context with AttachCluster, or machine-wide with
// MachineConfig.Dynamic.
type (
	// ClusterNode is a context's gossip membership agent: Join, Leave, Step,
	// Run, Registry, and RouteVia.
	ClusterNode = cluster.Node
	// ClusterNodeConfig tunes a gossip agent attached via AttachCluster or
	// MachineConfig.Dynamic.
	ClusterNodeConfig = cluster.NodeConfig
	// ClusterMember is one row of a context's membership view
	// (ObserveSnapshot.Cluster, /debug/nexusz).
	ClusterMember = obsv.ClusterMember
)

var (
	// AttachCluster attaches a gossip membership agent to a context and
	// returns it (on a context that has one, the agent already attached);
	// join an existing cluster with its Join, and start background
	// anti-entropy with Run.
	AttachCluster = cluster.Attach
	// ClusterNodeOf returns the agent attached to a context, or nil.
	ClusterNodeOf = cluster.NodeOf
)

// Mini-MPI layered on the core (internal/mpi).
type (
	// World is an MPI job spanning a machine.
	World = mpi.World
	// Comm is one rank's communicator handle.
	Comm = mpi.Comm
	// Message is a received MPI message.
	Message = mpi.Message
	// ReduceOp is a reduction operator.
	ReduceOp = mpi.Op
)

// MPI constructors, wildcards, and operators.
var (
	// NewWorld builds an MPI world over a machine.
	NewWorld = mpi.New
	// ReduceSum, ReduceMax, and ReduceMin are predefined operators.
	ReduceSum = mpi.Sum
	ReduceMax = mpi.Max
	ReduceMin = mpi.Min
)

// MPI matching wildcards.
const (
	AnySource = mpi.AnySource
	AnyTag    = mpi.AnyTag
)

// Coupled climate mini-app (internal/climate).
type (
	// ClimateConfig parameterises a coupled run.
	ClimateConfig = climate.Config
	// ClimateStats summarises a coupled run.
	ClimateStats = climate.Stats
)

// RunClimate executes the coupled model over a world.
var RunClimate = climate.Run

// Name service (internal/names): startpoints as discoverable global names.
type (
	// NameServer hosts a name service in a context.
	NameServer = names.Server
	// NameClient talks to a name server from another context.
	NameClient = names.Client
)

var (
	// NewNameServer installs a name service in a context.
	NewNameServer = names.NewServer
	// NewNameClient builds a client for a server startpoint.
	NewNameClient = names.NewClient
	// ErrNameNotFound reports resolution of an unregistered name.
	ErrNameNotFound = names.ErrNotFound
	// ErrNameExists reports registration of a taken name.
	ErrNameExists = names.ErrExists
)

// Image-processing pipeline mini-app (internal/pipeline).
type (
	// PipelineConfig parameterises a pipeline run.
	PipelineConfig = pipeline.Config
	// PipelineStats summarises a pipeline run.
	PipelineStats = pipeline.Stats
)

var (
	// RunPipeline drives the pipeline from rank 0 of a machine.
	RunPipeline = pipeline.Run
	// InstallPipelineWorker registers the tile-processing handler.
	InstallPipelineWorker = pipeline.InstallWorker
	// PipelineExpected computes a run's ground-truth checksum locally.
	PipelineExpected = pipeline.Expected
)

// Resource database (internal/resource).
type ResourceDatabase = resource.Database

var (
	// ParseMethodSpec parses "mpl,tcp:skip_poll=20"-style method specs.
	ParseMethodSpec = resource.ParseSpec
	// ParseResources parses a resource database.
	ParseResources = resource.ParseString
)
