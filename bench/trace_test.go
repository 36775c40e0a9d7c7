package main

import (
	"testing"
	"time"
)

// spanByName returns the first kept span of the given name.
func spanByName(spans []span, name spanName) span {
	for _, s := range spans {
		if s.Name == name {
			return s
		}
	}
	return span{}
}

func TestTracerNestingAndSelfTime(t *testing.T) {
	tr := newTracer(time.Now(), 0)
	tr.begin(spOp, 42)
	tr.begin(spCoreRSR, 42)
	time.Sleep(2 * time.Millisecond)
	tr.end()
	tr.begin(spCorePoll, 42)
	tr.begin(spCoreHandler, 42)
	time.Sleep(2 * time.Millisecond)
	tr.end()
	tr.endCalls(7, 6)
	tr.end()

	totals, spans := mergeTracers(tr)
	if len(spans) != 4 {
		t.Fatalf("%d spans kept, want 4", len(spans))
	}
	op, rsr := spanByName(spans, spOp), spanByName(spans, spCoreRSR)
	poll, handler := spanByName(spans, spCorePoll), spanByName(spans, spCoreHandler)
	if op.Parent != 0 || rsr.Parent != op.ID || poll.Parent != op.ID || handler.Parent != poll.ID {
		t.Errorf("parents: op %d, rsr %d, poll %d, handler %d (ids %d %d %d %d)",
			op.Parent, rsr.Parent, poll.Parent, handler.Parent, op.ID, rsr.ID, poll.ID, handler.ID)
	}
	for _, s := range spans {
		if s.Op != 42 {
			t.Errorf("span %s has op %d, want 42", spanNames[s.Name], s.Op)
		}
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", spanNames[s.Name])
		}
	}
	if poll.N != 7 || poll.Empty != 6 || totals[spCorePoll].Calls != 7 || totals[spCorePoll].Empty != 6 {
		t.Errorf("poll span calls/empty = %d/%d, totals %d/%d; want 7/6", poll.N, poll.Empty,
			totals[spCorePoll].Calls, totals[spCorePoll].Empty)
	}
	// Self time is the span minus what its children cover: the poll span's
	// self time excludes the handler's 2 ms, the op's excludes both children.
	pollDur, handlerDur := poll.End-poll.Start, handler.End-handler.Start
	if got := totals[spCorePoll].Self; got != pollDur-handlerDur {
		t.Errorf("poll self %d, want %d - %d", got, pollDur, handlerDur)
	}
	opDur, rsrDur := op.End-op.Start, rsr.End-rsr.Start
	if got := totals[spOp].Self; got != opDur-rsrDur-pollDur {
		t.Errorf("op self %d, want %d", got, opDur-rsrDur-pollDur)
	}
	if totals[spCoreHandler].Self != handlerDur || totals[spCoreHandler].Total != handlerDur {
		t.Errorf("a leaf's self time must equal its duration")
	}
	if totals[spCorePoll].Self >= int64(2*time.Millisecond) {
		t.Errorf("poll self time %v still contains the handler's sleep", time.Duration(totals[spCorePoll].Self))
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *tracer
	tr.begin(spOp, 1)
	tr.addWait(spCoreHandler, 5)
	tr.endCalls(3, 1)
	tr.end()
	var ts *traceSet
	if ts.get(0) != nil {
		t.Fatal("a nil trace set handed out a tracer")
	}
}

func TestTracerKeepsFirstSpansButCountsAll(t *testing.T) {
	tr := newTracer(time.Now(), 0)
	tr.keep = 10
	for i := 0; i < 25; i++ {
		tr.begin(spBufferPack, uint64(i))
		tr.end()
	}
	totals, spans := mergeTracers(tr)
	if len(spans) != 10 || spans[9].Op != 9 {
		t.Fatalf("kept %d spans (last op %d), want the first 10", len(spans), spans[len(spans)-1].Op)
	}
	if totals[spBufferPack].Count != 25 {
		t.Fatalf("totals count %d spans, want all 25", totals[spBufferPack].Count)
	}
	wt := buildWorkloadTrace(totals, spans)
	if wt.Recorded != 25 || len(wt.Spans) != 10 || wt.Totals["buffer.pack"].Count != 25 {
		t.Fatalf("trace.json section: recorded %d, spans %d, totals %+v", wt.Recorded, len(wt.Spans), wt.Totals)
	}
}

func TestMergeTracersAcrossGoroutines(t *testing.T) {
	ts := newTraceSet()
	a, b := ts.get(0), ts.get(1)
	if a == b || ts.get(0) != a {
		t.Fatal("trace set must hand each index its own, stable tracer")
	}
	a.begin(spRPCCall, 1)
	a.end()
	b.begin(spRPCCall, 2)
	b.end()
	b.addWait(spCoreHandler, 100)
	totals, spans := mergeTracers(ts.ts...)
	if totals[spRPCCall].Count != 2 || totals[spCoreHandler].Waited != 100 {
		t.Fatalf("merged totals %+v", totals[spRPCCall])
	}
	if len(spans) != 2 || spans[0].ID == spans[1].ID {
		t.Fatalf("merged spans %+v: ids must differ across tracers", spans)
	}
	if spans[0].Start > spans[1].Start {
		t.Fatal("merged spans are not in start order")
	}
}
