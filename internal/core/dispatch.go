package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nexus/internal/bufpool"
	"nexus/internal/metrics"
	"nexus/internal/obsv"
	"nexus/internal/wire"
)

// This file implements the concurrent dispatch engine: the receive-side twin
// of the zero-copy send path. The paper's threaded-handler model ("threads
// allow handlers to execute concurrently with polling") used to spawn one
// goroutine plus one payload clone per incoming RSR; here it is a fixed pool
// of worker lanes with bounded FIFO queues. Frames are hashed to a lane by
// destination endpoint, so deliveries to one endpoint stay in arrival order
// while distinct endpoints execute in parallel, and the hand-off reuses the
// bufpool storage contract instead of allocating.
//
// The hot-path tables (endpoints, handlers) live in copy-on-write maps behind
// atomic pointers (see context.go), so resolution costs zero lock
// acquisitions per frame. A small epoch gate brackets every delivery;
// UnregisterHandler drains it after swapping the table, which is what makes
// "no frame reaches a stale handler after UnregisterHandler returns" true
// under full concurrency.

// dispatchConfig sizes the threaded dispatch engine (Options.dispatch, a test
// seam). The zero value selects the sizes every other context runs with.
type dispatchConfig struct {
	// lanes is the number of worker lanes (default GOMAXPROCS). Frames are
	// hashed to a lane by destination endpoint id, so deliveries to one
	// endpoint are FIFO while different endpoints run in parallel.
	lanes int
	// queueDepth is each lane's bounded queue capacity (default 256). A full
	// lane applies backpressure: the delivering poller blocks until the lane
	// has room (or the context closes), so per-endpoint FIFO order holds.
	queueDepth int
}

func (c dispatchConfig) withDefaults() dispatchConfig {
	if c.lanes < 1 {
		c.lanes = runtime.GOMAXPROCS(0)
	}
	if c.queueDepth < 1 {
		c.queueDepth = 256
	}
	return c
}

// laneItem is one queued frame plus the delivery metadata the lane worker
// needs: the source module (per-method histograms, trace attribution), the
// sending context (fair-queue key) and the enqueue timestamp for the
// queue-wait stage (0 when stats are off). It is a small value struct so the
// hand-off stays allocation-free.
type laneItem struct {
	buf []byte
	ms  *moduleState
	src uint64 // sending context id: the per-sender fair-queue key
	enq int64  // UnixNano at enqueue; 0 when stats disabled
}

// senderQueue is one sender's FIFO backlog inside a lane. items is a ring-less
// slice with a moving head: once drained it resets to items[:0], so in steady
// state the slice capacity is reused and enqueue allocates nothing.
type senderQueue struct {
	items []laneItem
	head  int
	inRR  bool // currently registered in the lane's round-robin ring
}

// laneShard is one dispatch lane: a bounded queue split into per-sender
// sub-queues serviced round-robin. A sender flooding the lane fills only its
// own sub-queue; the worker still takes one frame per sender per turn, so
// well-behaved senders are never starved by an aggressive one. FIFO order is
// per (sender, endpoint) — weaker than the old per-endpoint order only when
// two contexts race to the same endpoint, where arrival order was already a
// network accident.
type laneShard struct {
	mu       sync.Mutex
	notEmpty sync.Cond
	notFull  sync.Cond
	subs     map[uint64]*senderQueue // by sending context; entries persist once created
	rr       []*senderQueue          // senders with pending frames, serviced in turn
	rrIdx    int
	size     int // total queued frames across sub-queues
	closed   bool
}

func newLaneShard() *laneShard {
	ln := &laneShard{subs: make(map[uint64]*senderQueue)}
	ln.notEmpty.L = &ln.mu
	ln.notFull.L = &ln.mu
	return ln
}

// overShare reports whether sender src already holds at least its fair share
// of a backlog budget: budget split evenly across the senders that currently
// have frames queued (plus src itself if it has none). A sender with an empty
// sub-queue is never over its share, so every sender can always get at least
// one frame admitted no matter how hard the others push. Caller holds ln.mu.
func (ln *laneShard) overShare(src uint64, budget int) bool {
	sq := ln.subs[src]
	if sq == nil || len(sq.items) == sq.head {
		return false
	}
	active := len(ln.rr)
	if !sq.inRR {
		active++
	}
	share := budget / active
	if share < 1 {
		share = 1
	}
	return len(sq.items)-sq.head >= share
}

// dispatcher is the sharded worker pool behind a threaded context.
type dispatcher struct {
	ctx      *Context
	lanes    []*laneShard
	ctl      *laneShard // dedicated control lane: never sheds, preempts data lanes
	queueCap int
	hiWater  int // bulk admission mark: at/above this depth, over-share senders' ClassBulk is shed
	stopOnce sync.Once

	cFull     *metrics.Counter // dispatch.queue_full: lane-full events
	cShedBulk *metrics.Counter // rsr.shed.bulk: ClassBulk frames dropped at admission
	depth     *metrics.Gauge   // dispatch.lane.depth: frames queued across all lanes
}

func newDispatcher(c *Context, cfg dispatchConfig) *dispatcher {
	cfg = cfg.withDefaults()
	hi := cfg.queueDepth * 3 / 4
	if hi < 1 {
		hi = 1
	}
	d := &dispatcher{
		ctx:       c,
		lanes:     make([]*laneShard, cfg.lanes),
		ctl:       newLaneShard(),
		queueCap:  cfg.queueDepth,
		hiWater:   hi,
		cFull:     c.stats.Counter("dispatch.queue_full"),
		cShedBulk: c.stats.Counter("rsr.shed.bulk"),
		depth:     c.stats.Gauge("dispatch.lane.depth"),
	}
	for i := range d.lanes {
		d.lanes[i] = newLaneShard()
		go d.run(d.lanes[i])
	}
	go d.run(d.ctl)
	return d
}

// enqueue hands one inbound frame to the worker pool. The caller borrows the
// frame (the Sink.Deliver contract), so the bytes are moved into pooled
// storage that the lane worker returns to the pool after delivery — the
// hand-off costs one copy and zero allocations in steady state, where the
// old threaded mode paid a goroutine spawn plus a cloned payload.
func (d *dispatcher) enqueue(ms *moduleState, f *wire.Frame, frame []byte) {
	buf := bufpool.Get(len(frame))
	copy(buf, frame)
	d.enqueueOwned(ms, f, buf)
}

// enqueueOwned is enqueue for a frame already in pooled storage the caller
// gives up: ownership transfers to the dispatcher, which returns the buffer
// to the pool after delivery (or on shutdown). Reassembled bulk messages use
// it so a multi-megabyte payload is not copied a second time on the way to
// its lane.
//
// Admission is by class. ClassControl frames go to the dedicated control
// lane, which applies backpressure but never sheds — health probes and
// credit grants survive any data overload. ClassBulk frames are shed once
// their lane reaches the high-water mark AND their sender already holds its
// fair share of the backlog: under overload, cheap-to-regenerate bulk is the
// first and only traffic dropped, the drop falls on the senders responsible
// for the depth, and the sender learns about it through the credit window
// closing rather than through silence. A global mark alone would shed by
// arrival accident — whoever filled the lane first keeps it pinned at high
// water and every later sender is dropped on sight. ClassNormal frames wait
// for room.
func (d *dispatcher) enqueueOwned(ms *moduleState, f *wire.Frame, buf []byte) {
	it := laneItem{buf: buf, ms: ms, src: f.SrcContext}
	if d.ctx.obs.mode.Load()&obsStats != 0 {
		it.enq = time.Now().UnixNano()
	}
	cls := f.Class()
	ln := d.ctl
	if cls != wire.ClassControl {
		ln = d.lanes[f.DestEndpoint%uint64(len(d.lanes))]
	}
	ln.mu.Lock()
	if cls == wire.ClassBulk && (ln.size >= d.queueCap || ln.size >= d.hiWater && ln.overShare(it.src, d.hiWater)) {
		ln.mu.Unlock()
		d.cShedBulk.Inc()
		bufpool.Put(buf)
		return
	}
	if ln.size >= d.queueCap && !ln.closed {
		if cls != wire.ClassControl {
			d.cFull.Inc()
		}
		for ln.size >= d.queueCap && !ln.closed {
			ln.notFull.Wait()
		}
	}
	if ln.closed {
		ln.mu.Unlock()
		bufpool.Put(buf)
		return
	}
	sq := ln.subs[it.src]
	if sq == nil {
		sq = &senderQueue{}
		ln.subs[it.src] = sq
	}
	sq.items = append(sq.items, it)
	if !sq.inRR {
		sq.inRR = true
		ln.rr = append(ln.rr, sq)
	}
	ln.size++
	d.depth.Inc()
	ln.notEmpty.Signal()
	ln.mu.Unlock()
}

// run is one lane worker. Each turn it takes one frame from the next sender
// in the lane's round-robin ring, so service is fair across senders while
// staying FIFO within each sender's backlog, and returns the frame's storage
// to the pool after the handler completes.
func (d *dispatcher) run(ln *laneShard) {
	for {
		ln.mu.Lock()
		for ln.size == 0 && !ln.closed {
			ln.notEmpty.Wait()
		}
		if ln.closed {
			// Context is closing: abandon the backlog, handlers already
			// running finish on their own.
			ln.mu.Unlock()
			return
		}
		if ln.rrIdx >= len(ln.rr) {
			ln.rrIdx = 0
		}
		sq := ln.rr[ln.rrIdx]
		it := sq.items[sq.head]
		sq.items[sq.head] = laneItem{}
		sq.head++
		if sq.head == len(sq.items) {
			// Drained: keep the slice capacity, leave the ring until the
			// sender queues again.
			sq.items = sq.items[:0]
			sq.head = 0
			sq.inRR = false
			ln.rr = append(ln.rr[:ln.rrIdx], ln.rr[ln.rrIdx+1:]...)
		} else {
			ln.rrIdx++
		}
		ln.size--
		d.depth.Dec()
		ln.notFull.Signal()
		ln.mu.Unlock()
		d.ctx.deliverItem(it)
		bufpool.Put(it.buf)
	}
}

// stop signals every lane worker to exit. Queued frames are abandoned (the
// context is closing); handlers already running finish on their own.
func (d *dispatcher) stop() {
	d.stopOnce.Do(func() {
		for _, ln := range append(d.lanes, d.ctl) {
			ln.mu.Lock()
			ln.closed = true
			ln.notEmpty.Broadcast()
			ln.notFull.Broadcast()
			ln.mu.Unlock()
		}
	})
}

// deliverItem re-decodes a pooled frame on a lane worker and delivers it.
// The decode is a handful of bounds checks against bytes already in cache —
// re-running it here keeps the queue item small and, more importantly,
// re-resolves the endpoint/handler tables at execution time, so a frame
// queued before an UnregisterHandler cannot reach the removed handler after
// it. The pickup timestamp, measured against it.enq, is the queue-wait
// stage: how long the frame sat behind its lane's backlog.
func (c *Context) deliverItem(it laneItem) {
	var f wire.Frame
	if err := wire.DecodeInto(&f, it.buf); err != nil {
		c.errlog(fmt.Errorf("core: context %d: bad frame: %w", c.id, err))
		return
	}
	if it.enq != 0 {
		wait := time.Duration(time.Now().UnixNano() - it.enq)
		if it.ms != nil {
			it.ms.lat.Stage(obsv.StageQueueWait).Record(wait)
		}
		if c.obs.mode.Load()&obsTrace != 0 && f.HasTrace() {
			c.recordEvent(obsv.Event{
				Trace:    obsv.TraceID(f.Trace),
				Stage:    obsv.StageQueueWait,
				Method:   msName(it.ms),
				Peer:     f.SrcContext,
				Endpoint: f.DestEndpoint,
				Handler:  f.Handler,
				Dur:      wait,
			})
		}
	}
	c.deliver(it.ms, &f)
}

// dispatchGate brackets every delivery so table writers can wait out
// in-flight readers without putting a lock on the per-frame path. It is an
// epoch pair: enter increments the counter of the current epoch's parity and
// validates that the epoch did not move mid-entry; drain flips the epoch and
// spins until the old parity's counter reaches zero. New deliveries land in
// the new parity (and resolve the new tables), so the wait is bounded even
// under a continuous frame flood.
type dispatchGate struct {
	epoch   atomic.Uint64
	active  [2]gateCounter
	drainMu sync.Mutex
}

// gateCounter is padded so the two parities do not share a cache line with
// each other or with the epoch word.
type gateCounter struct {
	n atomic.Int64
	_ [56]byte
}

// enter registers one in-flight delivery and returns the parity to exit with.
func (g *dispatchGate) enter() uint64 {
	for {
		e := g.epoch.Load()
		g.active[e&1].n.Add(1)
		if g.epoch.Load() == e {
			return e & 1
		}
		// A drain flipped the epoch between the load and the increment: the
		// drainer may already have observed our parity at zero, so our
		// registration there is void. Undo and re-enter under the new epoch.
		g.active[e&1].n.Add(-1)
	}
}

// exit deregisters a delivery entered under the given parity.
func (g *dispatchGate) exit(parity uint64) { g.active[parity].n.Add(-1) }

// drain waits until every delivery that may have observed the previous table
// snapshots has completed. Callers must not hold the context mutex (a
// running handler may be acquiring it) and must not be inside a delivery
// themselves: a handler that synchronously unregisters handlers on its own
// context would wait for its own gate entry. Do such maintenance from
// outside the handler, or from a fresh goroutine.
func (g *dispatchGate) drain() {
	g.drainMu.Lock()
	defer g.drainMu.Unlock()
	old := g.epoch.Load() & 1
	g.epoch.Add(1)
	for g.active[old].n.Load() != 0 {
		runtime.Gosched()
	}
}
