package main

import (
	"sort"
	"time"
)

// This file is the harness-side span recorder. Spans are opened and closed
// by the benchmark around its calls into each layer (the library itself is
// not instrumented); they live in memory and are written to trace.json when
// the run ends. End-to-end numbers never come from a traced run.

// spanName identifies the call a span wraps; names carry the layer prefix
// the per-layer metrics use.
type spanName uint8

const (
	spOp spanName = iota // one whole operation (the root of an op's spans)
	spBufferPack
	spCoreRSR
	spCorePoll
	spCoreHandler
	spRPCCall
	spRPCAwait
	spClusterStep
	spClusterDrain
	spAppRun
	nSpanNames
)

var spanNames = [nSpanNames]string{
	spOp:           "op",
	spBufferPack:   "buffer.pack",
	spCoreRSR:      "core.rsr",
	spCorePoll:     "core.poll",
	spCoreHandler:  "core.handler",
	spRPCCall:      "rpc.call",
	spRPCAwait:     "rpc.await",
	spClusterStep:  "cluster.step",
	spClusterDrain: "cluster.drain",
	spAppRun:       "app.run",
}

// span is one recorded interval. Times are nanoseconds since the trace
// epoch. Parent is the enclosing span on the same goroutine (0 for none);
// spans of one operation share Op, which is how a handler span recorded on
// the receiving goroutine is tied to the sender's spans.
type span struct {
	ID     uint64
	Parent uint64
	Op     uint64
	Name   spanName
	Start  int64
	End    int64
	// N counts the calls a span aggregates (a "core.poll" span covers one
	// wait: every Poll call until the one that delivered); Empty is how many
	// of them found nothing.
	N     uint32
	Empty uint32
}

// spanTotals aggregates every span of one name, kept or not.
type spanTotals struct {
	Count  uint64
	Calls  uint64 // Σ N
	Empty  uint64 // Σ Empty
	Total  int64  // Σ (End − Start)
	Self   int64  // Σ (End − Start − time covered by child spans)
	Waited int64  // workload-defined extra (detect wait), see addWait
}

// tracer records the spans of one goroutine. It is not safe for concurrent
// use: every recording goroutine owns one, and mergeTracers combines them.
// Spans on one tracer must nest (end closes the most recently begun span),
// which is what lets self time be computed as spans close.
type tracer struct {
	epoch  time.Time
	idBase uint64
	nextID uint64
	keep   int // spans retained for trace.json; totals cover all spans
	spans  []span
	open   []openSpan
	totals [nSpanNames]spanTotals
}

type openSpan struct {
	s       span
	covered int64 // time covered by already-closed children
}

// maxKeptSpans bounds the spans one tracer retains for trace.json (the
// first ones recorded); the per-name totals always cover every span.
const maxKeptSpans = 20000

func newTracer(epoch time.Time, index int) *tracer {
	return &tracer{
		epoch:  epoch,
		idBase: uint64(index+1) << 40,
		keep:   maxKeptSpans,
		spans:  make([]span, 0, maxKeptSpans),
		open:   make([]openSpan, 0, 8),
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span. A nil tracer records nothing, so untraced runs pay one
// nil check per call site.
func (t *tracer) begin(name spanName, op uint64) {
	if t == nil {
		return
	}
	t.nextID++
	s := span{ID: t.idBase | t.nextID, Op: op, Name: name, N: 1}
	if n := len(t.open); n > 0 {
		s.Parent = t.open[n-1].s.ID
	}
	s.Start = t.now()
	t.open = append(t.open, openSpan{s: s})
}

// end closes the innermost open span.
func (t *tracer) end() { t.endCalls(1, 0) }

// endCalls closes the innermost open span, recording that it covered `calls`
// calls of which `empty` found nothing.
func (t *tracer) endCalls(calls, empty uint32) {
	if t == nil {
		return
	}
	end := t.now()
	n := len(t.open) - 1
	o := t.open[n]
	t.open = t.open[:n]
	o.s.End, o.s.N, o.s.Empty = end, calls, empty
	dur := end - o.s.Start
	tot := &t.totals[o.s.Name]
	tot.Count++
	tot.Calls += uint64(calls)
	tot.Empty += uint64(empty)
	tot.Total += dur
	tot.Self += dur - o.covered
	if n > 0 {
		t.open[n-1].covered += dur
	}
	if len(t.spans) < t.keep {
		t.spans = append(t.spans, o.s)
	}
}

// addWait adds workload-defined waiting time to a name's totals (the harness
// uses it for the gap between an RSR returning and its handler starting,
// which no single span covers).
func (t *tracer) addWait(name spanName, ns int64) {
	if t != nil {
		t.totals[name].Waited += ns
	}
}

// mergeTracers combines per-goroutine tracers: totals are summed, kept
// spans concatenated in start order.
func mergeTracers(ts ...*tracer) (totals [nSpanNames]spanTotals, spans []span) {
	for _, t := range ts {
		if t == nil {
			continue
		}
		for i := range totals {
			a, b := &totals[i], t.totals[i]
			a.Count += b.Count
			a.Calls += b.Calls
			a.Empty += b.Empty
			a.Total += b.Total
			a.Self += b.Self
			a.Waited += b.Waited
		}
		spans = append(spans, t.spans...)
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	return totals, spans
}

// traceSpanJSON is a span as written to trace.json.
type traceSpanJSON struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Op      uint64 `json:"op,omitempty"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Calls   uint32 `json:"calls,omitempty"`
	Empty   uint32 `json:"empty,omitempty"`
}

// traceTotalsJSON is one name's aggregate as written to trace.json.
type traceTotalsJSON struct {
	Count   uint64 `json:"count"`
	Calls   uint64 `json:"calls"`
	Empty   uint64 `json:"empty"`
	TotalNs int64  `json:"total_ns"`
	SelfNs  int64  `json:"self_ns"`
}

// workloadTrace is one workload's section of trace.json.
type workloadTrace struct {
	Spans  []traceSpanJSON            `json:"spans"`
	Totals map[string]traceTotalsJSON `json:"totals"`
	// Recorded is how many spans the run produced; Spans holds the first
	// ones only (see maxKeptSpans), Totals covers all of them.
	Recorded uint64 `json:"recorded"`
}

func buildWorkloadTrace(totals [nSpanNames]spanTotals, spans []span) workloadTrace {
	wt := workloadTrace{
		Spans:  make([]traceSpanJSON, 0, len(spans)),
		Totals: make(map[string]traceTotalsJSON),
	}
	for _, s := range spans {
		js := traceSpanJSON{ID: s.ID, Parent: s.Parent, Op: s.Op, Name: spanNames[s.Name],
			StartNs: s.Start, EndNs: s.End}
		if s.N != 1 || s.Empty != 0 {
			js.Calls, js.Empty = s.N, s.Empty
		}
		wt.Spans = append(wt.Spans, js)
	}
	for i, t := range totals {
		if t.Count == 0 {
			continue
		}
		wt.Recorded += t.Count
		wt.Totals[spanNames[i]] = traceTotalsJSON{Count: t.Count, Calls: t.Calls, Empty: t.Empty,
			TotalNs: t.Total, SelfNs: t.Self}
	}
	return wt
}
