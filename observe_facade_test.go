package nexus_test

import (
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nexus"
)

// TestDroppedCounters drives both drop paths through the public facade and
// checks the enquiry counters the paper's §3.1 "enquiry functions" promise:
// an RSR naming a handler nobody registered, and an RSR addressed to an
// endpoint that has since closed.
func TestDroppedCounters(t *testing.T) {
	mk := func() *nexus.Context {
		c, err := nexus.NewContext(nexus.Options{
			Methods: []nexus.MethodConfig{{Name: "inproc"}},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	recv, send := mk(), mk()

	ep := recv.NewEndpoint() // no default handler
	sp, err := nexus.TransferStartpoint(ep.NewStartpoint(), send)
	if err != nil {
		t.Fatal(err)
	}

	// Unknown handler: the endpoint exists but resolves no handler function.
	if err := sp.RSR("never-registered", nil); err != nil {
		t.Fatal(err)
	}
	if !recv.PollUntil(func() bool {
		return recv.Stats().Get("rsr.dropped.unknown_handler") == 1
	}, 5*time.Second) {
		t.Fatalf("unknown_handler counter = %d, want 1",
			recv.Stats().Get("rsr.dropped.unknown_handler"))
	}

	// Unknown endpoint: the startpoint still addresses the endpoint's old ID
	// after Close removes it from the table.
	ep.Close()
	if err := sp.RSR("never-registered", nil); err != nil {
		t.Fatal(err)
	}
	if !recv.PollUntil(func() bool {
		return recv.Stats().Get("rsr.dropped.unknown_endpoint") == 1
	}, 5*time.Second) {
		t.Fatalf("unknown_endpoint counter = %d, want 1",
			recv.Stats().Get("rsr.dropped.unknown_endpoint"))
	}

	// Both drops also appear in the observability snapshot's counter map.
	snap := recv.Observe()
	if snap.Counters["rsr.dropped.unknown_handler"] != 1 ||
		snap.Counters["rsr.dropped.unknown_endpoint"] != 1 {
		t.Errorf("Observe counters = %v", snap.Counters)
	}
}

// TestObserveAndDebugHandlerFacade smoke-tests the public observability
// surface: typed snapshot, trace dump, and the /debug/nexusz handler.
func TestObserveAndDebugHandlerFacade(t *testing.T) {
	c, err := nexus.NewContext(nexus.Options{
		Methods: []nexus.MethodConfig{{Name: "inproc"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.EnableTracing(256)

	var got atomic.Int64
	ep := c.NewEndpoint(nexus.WithHandler(func(*nexus.Endpoint, *nexus.Buffer) { got.Add(1) }))
	sp := ep.NewStartpoint()
	for i := 0; i < 3; i++ {
		if err := sp.RSR("", nil); err != nil {
			t.Fatal(err)
		}
	}
	if got.Load() != 3 {
		t.Fatalf("handler ran %d times", got.Load())
	}

	snap := c.Observe()
	if !snap.StatsEnabled || !snap.TraceEnabled {
		t.Errorf("snapshot modes = %+v", snap)
	}
	var sawSend bool
	for _, l := range snap.Latencies {
		if l.Stage == nexus.StageSend.String() && l.Count == 3 && l.P99 >= l.P50 {
			sawSend = true
		}
	}
	if !sawSend {
		t.Errorf("no send-stage latency row: %+v", snap.Latencies)
	}

	dump := c.TraceDump()
	if len(dump) == 0 {
		t.Fatal("empty trace dump after traced sends")
	}
	var sendEvents int
	for _, e := range dump {
		if e.Trace.IsZero() {
			t.Errorf("traced event with zero trace ID: %+v", e)
		}
		if e.Stage == nexus.StageSend {
			sendEvents++
		}
	}
	if sendEvents != 3 {
		t.Errorf("send events = %d, want 3", sendEvents)
	}

	// DebugHandler renders the same data over HTTP.
	h := nexus.DebugHandler(c)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/nexusz", nil))
	body := rec.Body.String()
	for _, want := range []string{"send", "trace=true", "rsr.sent"} {
		if !strings.Contains(body, want) {
			t.Errorf("debug page missing %q:\n%s", want, body)
		}
	}
}
