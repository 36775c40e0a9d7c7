package core

import (
	"sort"
	"sync/atomic"
	"time"

	"nexus/internal/obsv"
	"nexus/internal/transport"
)

// This file wires the observability subsystem (internal/obsv) into the
// context: per-(method, stage) latency histograms on the send, dial, poll,
// queue-wait, and handler stages; cross-context RSR tracing through the wire
// header's trace extension; and the typed snapshot behind Observe and the
// /debug/nexusz handler.
//
// The overhead contract: with observability disabled every instrumented path
// pays exactly one atomic mode load and a predicted-not-taken branch — no
// clock reads, no histogram traffic, no ring appends, and no change to the
// RSR allocation budget. Stats mode adds two clock reads per instrumented
// operation; trace mode additionally stamps outbound frames with a 16-byte
// trace ID (17 header bytes) and appends events to a bounded ring.

// Observability mode bits (obsvState.mode).
const (
	// obsStats enables the latency histograms.
	obsStats = uint32(1 << 0)
	// obsTrace enables trace-ID stamping and the event ring. Trace implies
	// stats: the mode is always set with both bits or neither-plus-stats.
	obsTrace = uint32(1 << 1)
)

// minObservedPolls is how many poll observations a method needs before its
// measured cost overrides the module's static PollCostHint in selection and
// AutoSkipPoll.
const minObservedPolls = 16

// reactivePollCost is the per-pass cost attributed to a reactor-backed
// method: one bit test in the readiness bitmap (the syscalls happen only when
// data is actually pending, and belong to delivery, not detection).
const reactivePollCost = 200 * time.Nanosecond

// latMap maps a method name to its stage histograms; published copy-on-write
// so hot paths read it with one atomic load.
type latMap = map[string]*obsv.StageSet

// obsvState is a context's observability state. mode is the single hot-path
// gate; the ring and the method→StageSet map are only dereferenced once the
// mode says they are wanted.
type obsvState struct {
	mode atomic.Uint32
	ring atomic.Pointer[obsv.Ring]
	lat  atomic.Pointer[latMap]
	ids  *obsv.IDGen
}

// EnableStats turns the latency histograms on. Safe to call at any time;
// recording starts with the next instrumented operation.
func (c *Context) EnableStats() {
	c.obs.mode.Store(obsStats)
}

// EnableTracing turns cross-context RSR tracing on (histograms included):
// outbound RSRs are stamped with a fresh 16-byte trace ID carried in the
// wire header's trace extension, and every instrumented stage appends an
// event to a bounded ring of the given capacity (≤ 0 selects 4096). Frames
// received from peers keep the sender's trace ID, which is what lets one
// dump line up both sides of a link.
func (c *Context) EnableTracing(bufCap int) {
	if bufCap <= 0 {
		bufCap = 4096
	}
	if c.obs.ring.Load() == nil || c.obs.ring.Load().Cap() != bufCap {
		c.obs.ring.Store(obsv.NewRing(bufCap))
	}
	c.obs.mode.Store(obsStats | obsTrace)
}

// DisableObservability turns histograms and tracing off. Accumulated
// histogram contents and buffered trace events are kept (Observe and
// TraceDump still read them) until re-enabling overwrites them.
func (c *Context) DisableObservability() {
	c.obs.mode.Store(0)
}

// StatsEnabled reports whether latency histograms are recording.
func (c *Context) StatsEnabled() bool { return c.obs.mode.Load()&obsStats != 0 }

// TracingEnabled reports whether RSR tracing is on.
func (c *Context) TracingEnabled() bool { return c.obs.mode.Load()&obsTrace != 0 }

// TraceDump returns the buffered trace events, oldest first — the
// post-mortem API behind `nexus-pingpong -trace` and the debug handler.
func (c *Context) TraceDump() []obsv.Event {
	r := c.obs.ring.Load()
	if r == nil {
		return nil
	}
	return r.Dump()
}

// recordEvent appends one event to the trace ring, filling the recording
// context and timestamp. Callers have already checked the trace mode bit;
// the nil check makes a lost race with DisableObservability harmless.
func (c *Context) recordEvent(e obsv.Event) {
	r := c.obs.ring.Load()
	if r == nil {
		return
	}
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	e.Context = uint64(c.id)
	r.Append(e)
}

// NewTraceID draws a fresh trace/span id from the context's generator, for
// outbound RSRs and for layers (internal/rpc) that span several sends under
// one id.
func (c *Context) NewTraceID() obsv.TraceID { return c.obs.ids.Next() }

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
// Registering a name again replaces its set.
func (c *Context) RegisterLatencies(name string, ss *obsv.StageSet) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.registerStageSet(name, ss)
}

// registerStageSet publishes a method's StageSet in the copy-on-write
// method→latency map. Caller holds c.mu.
func (c *Context) registerStageSet(name string, ss *obsv.StageSet) {
	var next latMap
	if old := c.obs.lat.Load(); old != nil {
		next = make(latMap, len(*old)+1)
		for k, v := range *old {
			next[k] = v
		}
	} else {
		next = make(latMap, 1)
	}
	next[name] = ss
	c.obs.lat.Store(&next)
}

// stageSetFor returns the latency histograms for a method (nil if the method
// was never enabled here). One atomic load plus a map lookup; hot paths that
// already hold a moduleState use ms.lat directly instead.
func (c *Context) stageSetFor(method string) *obsv.StageSet {
	m := c.obs.lat.Load()
	if m == nil {
		return nil
	}
	return (*m)[method]
}

// pollCostEstimate reports a method's per-poll cost for measurement-driven
// selection: the observed mean from the poll-stage histogram once it has
// minObservedPolls samples, otherwise the module's static PollCostHint. This
// is what closes the paper's tuning loop — CheapestPoll and
// AutoSkipPoll rank methods by what polling actually costs on this host,
// not by the module author's guess.
func (c *Context) pollCostEstimate(ms *moduleState) time.Duration {
	if ms.reactive {
		// A reactor-backed method's idle pass is one bitmap test — no
		// syscalls. Its poll-stage histogram records only the passes that
		// had data to drain, which would wildly overstate what detection
		// costs; report the near-zero idle cost instead, so selection and
		// AutoSkipPoll treat the method as essentially free to keep
		// in the rotation.
		return reactivePollCost
	}
	if c.obs.mode.Load()&obsStats != 0 && ms.lat != nil {
		h := ms.lat.Stage(obsv.StagePoll)
		if h.Count() >= minObservedPolls {
			if m := h.Mean(); m > 0 {
				return m
			}
		}
	}
	if h, ok := ms.module.(transport.CostHinter); ok {
		return h.PollCostHint()
	}
	return 0
}

// sendCostEstimate reports a method's observed mean send latency (0 without
// enough samples), used by the FastestObserved selection policy.
func (c *Context) sendCostEstimate(ms *moduleState) time.Duration {
	if c.obs.mode.Load()&obsStats != 0 && ms.lat != nil {
		h := ms.lat.Stage(obsv.StageSend)
		if h.Count() >= minObservedPolls {
			return h.Mean()
		}
	}
	return 0
}

// Observe returns the context's typed observability snapshot: enquiry
// counters, every (method, stage) latency histogram with data, and the trace
// ring's occupancy. It is safe to call at any time from any goroutine.
func (c *Context) Observe() obsv.Snapshot {
	mode := c.obs.mode.Load()
	s := obsv.Snapshot{
		Context:      uint64(c.id),
		Process:      c.process,
		StatsEnabled: mode&obsStats != 0,
		TraceEnabled: mode&obsTrace != 0,
		Counters:     c.stats.Snapshot(),
	}
	// Instantaneous levels sampled at snapshot time: the reassembler's
	// buffered partial bytes, and whatever levels the modules themselves
	// report (e.g. tcp's queued send backlog).
	s.Counters["frag.partials.bytes"] = uint64(c.frags.BufferedBytes())
	c.mu.RLock()
	mods := make([]*moduleState, len(c.modules))
	copy(mods, c.modules)
	c.mu.RUnlock()
	for _, ms := range mods {
		if sr, ok := ms.module.(transport.StatsReporter); ok {
			for k, v := range sr.TransportStats() {
				s.Counters[k] += v
			}
		}
	}
	var lat latMap
	if p := c.obs.lat.Load(); p != nil {
		lat = *p
	}
	methods := make([]string, 0, len(lat))
	for name := range lat {
		methods = append(methods, name)
	}
	sort.Strings(methods)
	for _, name := range methods {
		ss := lat[name]
		for st := 0; st < obsv.NumStages; st++ {
			h := ss.Stage(obsv.Stage(st)).Snapshot()
			if h.Count == 0 {
				continue
			}
			s.Latencies = append(s.Latencies, obsv.Latency{
				Method: name,
				Stage:  obsv.Stage(st).String(),
				Count:  h.Count,
				Mean:   h.Mean(),
				P50:    h.P50(),
				P95:    h.P95(),
				P99:    h.P99(),
			})
		}
	}
	if r := c.obs.ring.Load(); r != nil {
		s.TraceBuffered = r.Len()
		s.TraceCapacity = r.Cap()
		s.TraceTotal = r.Total()
	}
	for l := range c.layers {
		if a := c.layers[l].Load(); a != nil {
			if rows, ok := a.v.(snapshotRows); ok {
				rows.ObserveInto(&s)
			}
		}
	}
	return s
}
