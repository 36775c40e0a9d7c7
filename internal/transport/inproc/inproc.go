// Package inproc implements a shared-memory communication module for
// contexts that live in the same operating-system process.
//
// It is the analogue of the original Nexus shared-memory module: contexts in
// one process exchange frames through an Exchange — a registry of per-context
// mailboxes — with a single enqueue as the only transfer cost. Polling an
// inproc module is cheap (a mutex acquire and a queue check), which makes it
// the "inexpensive, frequently used" method in multimethod polling
// experiments, playing the role MPL plays in the paper.
package inproc

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"nexus/internal/bufpool"
	"nexus/internal/transport"
)

// Name is the method name used in descriptors and resource strings.
const Name = "inproc"

func init() {
	transport.Register(Name, []transport.Param{
		{Key: "exchange", Default: "default", Doc: "name of the process-wide exchange to join"},
		{Key: "poll_batch", Default: 32, Min: 1, Doc: "most frames delivered per Poll"},
		{Key: "poll_cost", Default: time.Duration(0), Min: 0, Doc: "artificial busy-wait per Poll, for polling experiments"},
	}, func(v transport.Values) (transport.Module, error) {
		return New(GetOrCreateExchange(v.Str("exchange")), v), nil
	})
}

// Exchange is an in-process message fabric: the set of mailboxes for the
// contexts of one virtual machine. Distinct exchanges are invisible to each
// other, which lets tests build isolated machines.
type Exchange struct {
	name  string
	mu    sync.RWMutex
	boxes map[transport.ContextID]*mailbox
}

// NewExchange returns an isolated exchange with the given name.
func NewExchange(name string) *Exchange {
	return &Exchange{name: name, boxes: make(map[transport.ContextID]*mailbox)}
}

// Name reports the exchange's name.
func (e *Exchange) Name() string { return e.name }

var (
	exchangesMu sync.Mutex
	exchanges   = make(map[string]*Exchange)
)

// GetOrCreateExchange returns the process-wide exchange with the given name,
// creating it on first use. The default registry factory resolves the
// "exchange" parameter through this table.
func GetOrCreateExchange(name string) *Exchange {
	exchangesMu.Lock()
	defer exchangesMu.Unlock()
	e, ok := exchanges[name]
	if !ok {
		e = NewExchange(name)
		exchanges[name] = e
	}
	return e
}

type mailbox struct {
	mu    sync.Mutex
	queue [][]byte
	head  int
}

func (mb *mailbox) push(frame []byte) {
	mb.mu.Lock()
	mb.queue = append(mb.queue, frame)
	mb.mu.Unlock()
}

// pop moves up to max frames into dst (reusing its capacity) and returns the
// filled slice. An empty result means the mailbox was empty.
func (mb *mailbox) pop(dst [][]byte, max int) [][]byte {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	n := len(mb.queue) - mb.head
	if n == 0 {
		return dst[:0]
	}
	if n > max {
		n = max
	}
	dst = append(dst[:0], mb.queue[mb.head:mb.head+n]...)
	for i := mb.head; i < mb.head+n; i++ {
		mb.queue[i] = nil // don't pin frame storage from the queue
	}
	mb.head += n
	if mb.head == len(mb.queue) {
		mb.queue = mb.queue[:0]
		mb.head = 0
	}
	return dst
}

func (e *Exchange) register(ctx transport.ContextID) (*mailbox, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.boxes[ctx]; dup {
		return nil, fmt.Errorf("inproc: context %d already registered on exchange %q", ctx, e.name)
	}
	mb := &mailbox{}
	e.boxes[ctx] = mb
	return mb, nil
}

func (e *Exchange) unregister(ctx transport.ContextID) {
	e.mu.Lock()
	delete(e.boxes, ctx)
	e.mu.Unlock()
}

func (e *Exchange) lookup(ctx transport.ContextID) (*mailbox, bool) {
	e.mu.RLock()
	mb, ok := e.boxes[ctx]
	e.mu.RUnlock()
	return mb, ok
}

// Module is a shared-memory communication method bound to one exchange.
type Module struct {
	exchange  *Exchange
	env       transport.Env
	box       *mailbox
	pollBatch int
	pollCost  time.Duration
	scratch   [][]byte // pop destination, reused across Polls (Poll is not self-concurrent)
	mu        sync.Mutex
	closed    bool
	inited    bool
}

// New returns an uninitialized module on the given exchange, from its
// checked parameters v.
func New(e *Exchange, v transport.Values) *Module {
	return &Module{
		exchange:  e,
		pollBatch: v.Int("poll_batch"),
		pollCost:  v.Duration("poll_cost"),
	}
}

// Name implements transport.Module.
func (m *Module) Name() string { return Name }

// Init registers this context's mailbox on the exchange. The descriptor
// carries the exchange and process identities used by Applicable.
func (m *Module) Init(env transport.Env) (*transport.Descriptor, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.inited {
		return nil, fmt.Errorf("inproc: double Init for context %d", env.Context)
	}
	box, err := m.exchange.register(env.Context)
	if err != nil {
		return nil, err
	}
	m.env = env
	m.box = box
	m.inited = true
	return &transport.Descriptor{
		Method:  Name,
		Context: env.Context,
		Attrs: map[string]string{
			"exchange": m.exchange.name,
			"process":  env.Process,
			// addr names the physical mailbox; forwarding setups may
			// rewrite it while Context keeps naming the final destination.
			"addr": strconv.FormatUint(uint64(env.Context), 10),
		},
	}, nil
}

// Applicable reports whether remote is reachable: same method, same exchange,
// same OS process.
func (m *Module) Applicable(remote transport.Descriptor) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.inited &&
		remote.Method == Name &&
		remote.Attr("exchange") == m.exchange.name &&
		remote.Attr("process") == m.env.Process
}

// Dial opens a connection that enqueues frames on the remote mailbox.
func (m *Module) Dial(remote transport.Descriptor) (transport.Conn, error) {
	m.mu.Lock()
	inited, closed := m.inited, m.closed
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
			return nil, fmt.Errorf("inproc: bad addr %q: %w", a, err)
		}
		dest = transport.ContextID(n)
	}
	return &conn{exchange: m.exchange, dest: dest}, nil
}

// Poll drains up to poll_batch pending frames to the sink.
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
	box, sink, batch, cost := m.box, m.env.Sink, m.pollBatch, m.pollCost
	m.mu.Unlock()

	if cost > 0 {
		busyWait(cost)
	}
	m.scratch = box.pop(m.scratch, batch)
	for i, f := range m.scratch {
		sink.Deliver(f)
		bufpool.Put(f) // Deliver borrows; the frame storage is ours again
		m.scratch[i] = nil
	}
	return len(m.scratch), nil
}

// PollCostHint implements transport.CostHinter when a synthetic poll cost is
// configured.
func (m *Module) PollCostHint() time.Duration { return m.pollCost }

// Close unregisters the mailbox. Pending undelivered frames are dropped.
func (m *Module) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	if m.inited {
		m.exchange.unregister(m.env.Context)
	}
	return nil
}

// busyWait spins for approximately d. time.Sleep granularity (tens of
// microseconds or worse) is too coarse for modelling per-poll costs of a few
// microseconds, so short waits spin on the monotonic clock.
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
	exchange *Exchange
	dest     transport.ContextID
}

func (c *conn) Send(frame []byte) error {
	box, ok := c.exchange.lookup(c.dest)
	if !ok {
		return fmt.Errorf("inproc: context %d not registered on exchange %q: %w",
			c.dest, c.exchange.name, transport.ErrClosed)
	}
	// Send borrows frame, but the mailbox queues it past this call's return,
	// so copy into pooled storage; Poll recycles it after delivery.
	cp := bufpool.Get(len(frame))
	copy(cp, frame)
	box.push(cp)
	return nil
}

func (c *conn) Method() string { return Name }
func (c *conn) Close() error   { return nil }
