// Package simnet implements simulated network fabrics as communication
// modules.
//
// The paper's experiments rely on transports this machine does not have —
// IBM's MPL over the SP2 switch, AAL5/ATM, Myrinet. simnet substitutes
// parameterised in-process fabrics that preserve the properties the paper's
// results depend on:
//
//   - applicability scope: an "mpl" frame can only travel between contexts in
//     the same partition, exactly like MPL within an SP2 partition;
//   - a latency + bandwidth delay model: a frame becomes visible to the
//     receiver's Poll only after wire latency plus size/bandwidth, with
//     per-connection serialization;
//   - asymmetric poll costs: each fabric charges a configurable busy-wait per
//     Poll, reproducing the cheap-probe vs expensive-select asymmetry.
//
// Four methods are registered by default, all tunable through parameters:
//
//	mpl  — partition-scoped, fast, cheap polls (the SP2 switch analogue)
//	myri — partition-scoped, faster still (the Myrinet analogue)
//	atm  — globally routable, moderate latency (the AAL5/ATM analogue)
//	wan  — globally routable, high latency, expensive polls (the
//	       inter-partition TCP analogue from the paper's case study)
package simnet

import (
	"container/heap"
	"fmt"
	"strconv"
	"sync"
	"time"

	"nexus/internal/bufpool"
	"nexus/internal/transport"
)

// Scope restricts which context pairs a method can connect.
type Scope int

const (
	// ScopeGlobal methods connect any two contexts on the fabric.
	ScopeGlobal Scope = iota
	// ScopeProcess methods connect contexts in the same OS process.
	ScopeProcess
	// ScopePartition methods connect contexts in the same partition (and
	// the same process, since the fabric is in-memory).
	ScopePartition
)

func (s Scope) String() string {
	switch s {
	case ScopeGlobal:
		return "global"
	case ScopeProcess:
		return "process"
	case ScopePartition:
		return "partition"
	default:
		return fmt.Sprintf("scope(%d)", int(s))
	}
}

// Config parameterises a simulated fabric method.
type Config struct {
	// Method is the descriptor method name ("mpl", "atm", ...).
	Method string
	// Scope restricts connectivity.
	Scope Scope
	// Latency is the one-way wire latency.
	Latency time.Duration
	// BytesPerSec is the link bandwidth; 0 means infinite.
	BytesPerSec float64
	// PollCost is the busy-wait charged to every Poll.
	PollCost time.Duration
	// TimeScale divides all modelled delays (latency and transmission
	// time, not PollCost): 10 runs the fabric 10x faster than modelled,
	// letting long experiments finish quickly while preserving ratios.
	TimeScale float64
	// PollBatch bounds frames delivered per Poll.
	PollBatch int
	// MaxMessage caps the frame size Send accepts (0 = unlimited). Real
	// mid-90s fabrics had MTUs; setting one makes the simulated method
	// size-limited exactly like udp/rudp, which is how fragmentation and
	// size-aware selection are exercised deterministically in tests.
	MaxMessage int
}

// Defaults for the registered methods. Latencies and bandwidths follow the
// paper's SP2 measurements where it states them (MPL ≈ 36 MB/s; TCP over the
// switch ≈ 8 MB/s with ≈ 2 ms small-message latency); the rest are plausible
// mid-90s values. All are overridable via parameters.
var (
	MPLDefaults  = Config{Method: "mpl", Scope: ScopePartition, Latency: 40 * time.Microsecond, BytesPerSec: 36e6, PollCost: 15 * time.Microsecond, TimeScale: 1, PollBatch: 32}
	MyriDefaults = Config{Method: "myri", Scope: ScopePartition, Latency: 20 * time.Microsecond, BytesPerSec: 60e6, PollCost: 10 * time.Microsecond, TimeScale: 1, PollBatch: 32}
	ATMDefaults  = Config{Method: "atm", Scope: ScopeGlobal, Latency: 500 * time.Microsecond, BytesPerSec: 16e6, PollCost: 60 * time.Microsecond, TimeScale: 1, PollBatch: 32}
	WANDefaults  = Config{Method: "wan", Scope: ScopeGlobal, Latency: 2 * time.Millisecond, BytesPerSec: 8e6, PollCost: 100 * time.Microsecond, TimeScale: 1, PollBatch: 32}
)

func init() {
	for _, def := range []Config{MPLDefaults, MyriDefaults, ATMDefaults, WANDefaults} {
		transport.Register(def.Method, []transport.Param{
			{Key: "fabric", Default: "default", Doc: "name of the process-wide fabric to join"},
			{Key: "latency", Default: def.Latency, Min: 0, Doc: "one-way wire latency"},
			{Key: "bandwidth", Default: def.BytesPerSec, Min: 0, Doc: "link bandwidth in bytes/s (0 = infinite)"},
			{Key: "poll_cost", Default: def.PollCost, Min: 0, Doc: "busy-wait charged to every Poll"},
			{Key: "time_scale", Default: def.TimeScale, Min: 0.001, Doc: "divisor of the modelled delays (not of poll_cost)"},
			{Key: "poll_batch", Default: def.PollBatch, Min: 1, Doc: "most frames delivered per Poll"},
			{Key: "max_message", Default: def.MaxMessage, Min: 0, Doc: "largest frame Send accepts (0 = unlimited)"},
		}, func(v transport.Values) (transport.Module, error) {
			c := def
			c.Latency = v.Duration("latency")
			c.BytesPerSec = v.Float("bandwidth")
			c.PollCost = v.Duration("poll_cost")
			c.TimeScale = v.Float("time_scale")
			c.PollBatch = v.Int("poll_batch")
			c.MaxMessage = v.Int("max_message")
			return New(GetOrCreateFabric(v.Str("fabric")+"/"+def.Method), c), nil
		})
	}
}

// Fabric is the shared medium for one simulated method: the set of mailboxes
// of all participating contexts.
type Fabric struct {
	name   string
	faults *Faults
	mu     sync.RWMutex
	boxes  map[transport.ContextID]*mailbox
}

// NewFabric returns an isolated fabric.
func NewFabric(name string) *Fabric {
	return &Fabric{name: name, faults: newFaults(), boxes: make(map[transport.ContextID]*mailbox)}
}

// Name reports the fabric's name.
func (f *Fabric) Name() string { return f.name }

var (
	fabricsMu sync.Mutex
	fabrics   = make(map[string]*Fabric)
)

// GetOrCreateFabric returns the process-wide fabric with the given name.
func GetOrCreateFabric(name string) *Fabric {
	fabricsMu.Lock()
	defer fabricsMu.Unlock()
	f, ok := fabrics[name]
	if !ok {
		f = NewFabric(name)
		fabrics[name] = f
	}
	return f
}

type timedFrame struct {
	at    time.Time
	seq   uint64
	frame []byte
}

type frameHeap []timedFrame

func (h frameHeap) Len() int { return len(h) }
func (h frameHeap) Less(i, j int) bool {
	if h[i].at.Equal(h[j].at) {
		return h[i].seq < h[j].seq
	}
	return h[i].at.Before(h[j].at)
}
func (h frameHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *frameHeap) Push(x interface{}) { *h = append(*h, x.(timedFrame)) }
func (h *frameHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

type mailbox struct {
	mu  sync.Mutex
	h   frameHeap
	seq uint64
}

func (mb *mailbox) push(at time.Time, frame []byte) {
	mb.mu.Lock()
	mb.seq++
	heap.Push(&mb.h, timedFrame{at: at, seq: mb.seq, frame: frame})
	mb.mu.Unlock()
}

// ripe pops up to max frames whose arrival time has passed.
func (mb *mailbox) ripe(now time.Time, max int) [][]byte {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	var out [][]byte
	for len(mb.h) > 0 && len(out) < max && !mb.h[0].at.After(now) {
		out = append(out, heap.Pop(&mb.h).(timedFrame).frame)
	}
	return out
}

func (f *Fabric) register(ctx transport.ContextID) (*mailbox, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.boxes[ctx]; dup {
		return nil, fmt.Errorf("simnet: context %d already on fabric %q", ctx, f.name)
	}
	mb := &mailbox{}
	f.boxes[ctx] = mb
	return mb, nil
}

func (f *Fabric) unregister(ctx transport.ContextID) {
	f.mu.Lock()
	delete(f.boxes, ctx)
	f.mu.Unlock()
}

func (f *Fabric) lookup(ctx transport.ContextID) (*mailbox, bool) {
	f.mu.RLock()
	mb, ok := f.boxes[ctx]
	f.mu.RUnlock()
	return mb, ok
}

// Module is one context's attachment to a simulated fabric.
type Module struct {
	fabric *Fabric
	cfg    Config

	mu     sync.Mutex
	env    transport.Env
	own    transport.Reach // of the descriptor Init returned
	box    *mailbox
	inited bool
	closed bool
}

// New returns an uninitialized module for the fabric with the given config,
// whose TimeScale and PollBatch must be positive.
func New(f *Fabric, cfg Config) *Module { return &Module{fabric: f, cfg: cfg} }

// Name implements transport.Module.
func (m *Module) Name() string { return m.cfg.Method }

// Config reports the module's effective configuration.
func (m *Module) Config() Config { return m.cfg }

// Init attaches the context to the fabric. The descriptor carries the
// fabric, process, partition and scope the reach rule reads.
func (m *Module) Init(env transport.Env) (*transport.Descriptor, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.inited {
		return nil, fmt.Errorf("simnet(%s): double Init for context %d", m.cfg.Method, env.Context)
	}
	box, err := m.fabric.register(env.Context)
	if err != nil {
		return nil, err
	}
	attrs := map[string]string{
		"fabric":    m.fabric.name,
		"process":   env.Process,
		"partition": env.Partition,
		// addr names the physical mailbox frames are sent to. It is
		// normally the context itself, but forwarding setups rewrite it
		// to a forwarder's mailbox while Context keeps naming the final
		// destination.
		"addr":  strconv.FormatUint(uint64(env.Context), 10),
		"scope": m.cfg.Scope.String(),
	}
	if m.cfg.MaxMessage > 0 {
		attrs[transport.AttrMaxMessage] = strconv.Itoa(m.cfg.MaxMessage)
	}
	if cost := m.cfg.Latency + m.cfg.PollCost; cost > 0 {
		// Advertise the modelled per-message cost so cost-aware routing can
		// weight edges between remote contexts it has never sent over.
		attrs[transport.AttrCost] = strconv.FormatInt(cost.Nanoseconds(), 10)
	}
	d := transport.Descriptor{Method: m.cfg.Method, Context: env.Context, Attrs: attrs}
	m.env = env
	m.own = transport.ReachOf(d)
	m.box = box
	m.inited = true
	return &d, nil
}

// MaxMessage implements transport.SizeLimiter (0 = unlimited).
func (m *Module) MaxMessage() int { return m.cfg.MaxMessage }

// Applicable applies the reach rule (transport.Reaches): same fabric, then
// the advertised scope.
func (m *Module) Applicable(remote transport.Descriptor) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.inited && m.own.Reaches(remote)
}

// Dial opens a connection whose sends are stamped with modelled arrival
// times.
func (m *Module) Dial(remote transport.Descriptor) (transport.Conn, error) {
	m.mu.Lock()
	inited, closed := m.inited, m.closed
	src := m.env.Context
	m.mu.Unlock()
	if !inited {
		return nil, transport.ErrNotInitialized
	}
	if closed {
		return nil, transport.ErrClosed
	}
	if !m.Applicable(remote) {
		return nil, transport.ErrNotApplicable
	}
	dest := remote.Context
	if a := remote.Attr("addr"); a != "" {
		n, err := strconv.ParseUint(a, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("simnet(%s): bad addr %q: %w", m.cfg.Method, a, err)
		}
		dest = transport.ContextID(n)
	}
	return &conn{fabric: m.fabric, cfg: m.cfg, src: src, dest: dest}, nil
}

// Poll charges the configured poll cost, then delivers every ripe frame up
// to the batch limit.
func (m *Module) Poll() (int, error) {
	m.mu.Lock()
	if !m.inited {
		m.mu.Unlock()
		return 0, transport.ErrNotInitialized
	}
	if m.closed {
		m.mu.Unlock()
		return 0, transport.ErrClosed
	}
	box, sink := m.box, m.env.Sink
	cost, batch := m.cfg.PollCost, m.cfg.PollBatch
	m.mu.Unlock()

	if cost > 0 {
		busyWait(cost)
	}
	frames := box.ripe(time.Now(), batch)
	for _, f := range frames {
		sink.Deliver(f)
		bufpool.Put(f) // Deliver borrows; the frame storage is ours again
	}
	return len(frames), nil
}

// PollCostHint implements transport.CostHinter.
func (m *Module) PollCostHint() time.Duration { return m.cfg.PollCost }

// Close detaches from the fabric; undelivered frames are dropped.
func (m *Module) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	if m.inited {
		m.fabric.unregister(m.env.Context)
	}
	return nil
}

func busyWait(d time.Duration) {
	if d >= time.Millisecond {
		time.Sleep(d)
		return
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
	}
}

type conn struct {
	fabric *Fabric
	cfg    Config
	src    transport.ContextID
	dest   transport.ContextID

	mu       sync.Mutex
	linkFree time.Time // when the modelled link finishes its previous frame
}

// errDeparted refuses a send to a context that has left the fabric.
var errDeparted = fmt.Errorf("simnet: destination context not on fabric: %w", transport.ErrClosed)

// Send stamps the frame with its modelled arrival time: transmission starts
// when the link is free, lasts size/bandwidth, and arrival adds wire latency.
// Configured faults are consulted first: an injected error aborts the send, a
// probabilistic drop silently discards the frame (Send still succeeds), and
// injected delay is added to the arrival time unscaled. A refused send
// returns a package sentinel as it is, allocating nothing: core's link names
// the method and the peer when it reports the failure.
func (c *conn) Send(frame []byte) error {
	if c.cfg.MaxMessage > 0 && len(frame) > c.cfg.MaxMessage {
		return fmt.Errorf("simnet(%s): frame of %d bytes exceeds MTU %d: %w",
			c.cfg.Method, len(frame), c.cfg.MaxMessage, transport.ErrTooLarge)
	}
	var extra time.Duration
	if fs := c.fabric.faults; fs != nil && fs.active.Load() {
		d, drop, err := fs.apply(c.src, c.dest)
		if err != nil {
			return err
		}
		if drop {
			return nil
		}
		extra = d
	}
	box, ok := c.fabric.lookup(c.dest)
	if !ok {
		return errDeparted
	}
	now := time.Now()
	var tx time.Duration
	if c.cfg.BytesPerSec > 0 {
		tx = time.Duration(float64(len(frame)) / c.cfg.BytesPerSec * float64(time.Second))
	}
	scale := c.cfg.TimeScale
	c.mu.Lock()
	start := now
	if c.linkFree.After(start) {
		start = c.linkFree
	}
	txScaled := time.Duration(float64(tx) / scale)
	c.linkFree = start.Add(txScaled)
	arrival := c.linkFree.Add(time.Duration(float64(c.cfg.Latency)/scale) + extra)
	c.mu.Unlock()
	// Send borrows frame, but the mailbox holds it until its modelled arrival,
	// so copy into pooled storage; Poll recycles it after delivery.
	cp := bufpool.Get(len(frame))
	copy(cp, frame)
	box.push(arrival, cp)
	return nil
}

func (c *conn) Method() string { return c.cfg.Method }
func (c *conn) Close() error   { return nil }
