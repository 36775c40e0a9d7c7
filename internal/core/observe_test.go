package core

import (
	"sync/atomic"
	"testing"
	"time"

	"nexus/internal/buffer"
	"nexus/internal/obsv"
	"nexus/internal/transport"
	_ "nexus/internal/transport/udp" // registers udp and rudp
)

// observeCtx builds a context with explicit observability options, registering
// the usual cleanup.
func observeCtx(t testing.TB, opts Options) *Context {
	t.Helper()
	c, err := NewContext(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// eventsFor filters a trace dump down to one trace ID.
func eventsFor(dump []obsv.Event, id obsv.TraceID) []obsv.Event {
	var out []obsv.Event
	for _, e := range dump {
		if e.Trace == id {
			out = append(out, e)
		}
	}
	return out
}

func stagesOf(events []obsv.Event) map[obsv.Stage]bool {
	m := make(map[obsv.Stage]bool)
	for _, e := range events {
		m[e.Stage] = true
	}
	return m
}

func TestObservabilityDisabledByDefault(t *testing.T) {
	c := newCtx(t, "obs-default", "")
	if c.StatsEnabled() || c.TracingEnabled() {
		t.Fatal("observability on by default")
	}
	if d := c.TraceDump(); d != nil {
		t.Fatalf("TraceDump on a fresh context = %v", d)
	}
	s := c.Observe()
	if s.StatsEnabled || s.TraceEnabled || len(s.Latencies) != 0 {
		t.Fatalf("disabled snapshot = %+v", s)
	}
	if s.Context != uint64(c.ID()) {
		t.Errorf("snapshot context = %d, want %d", s.Context, c.ID())
	}
}

func TestObservabilityToggles(t *testing.T) {
	c := newCtx(t, "obs-toggle", "")
	c.EnableStats()
	if !c.StatsEnabled() || c.TracingEnabled() {
		t.Fatal("EnableStats state wrong")
	}
	c.EnableTracing(32)
	if !c.StatsEnabled() || !c.TracingEnabled() {
		t.Fatal("EnableTracing state wrong")
	}
	c.DisableObservability()
	if c.StatsEnabled() || c.TracingEnabled() {
		t.Fatal("DisableObservability state wrong")
	}
	// The ring survives disabling: post-mortem dumps still work.
	if c.TraceDump() == nil && c.obs.ring.Load() == nil {
		t.Error("ring discarded on disable")
	}
}

// TestHistogramStagesLocal checks that a stats-enabled context records send
// and handler latencies for ordinary RSR traffic, and that Observe surfaces
// them with non-zero counts.
func TestHistogramStagesLocal(t *testing.T) {
	c := observeCtx(t, Options{
		Methods: []MethodConfig{inprocCfg()},
		Observe: ObserveConfig{Stats: true},
	})
	var got atomic.Int64
	ep := c.NewEndpoint(WithHandler(func(ep *Endpoint, b *buffer.Buffer) {
		got.Add(1)
	}))
	sp := ep.NewStartpoint()
	for i := 0; i < 5; i++ {
		if err := sp.RSR("", nil); err != nil {
			t.Fatal(err)
		}
	}
	if got.Load() != 5 {
		t.Fatalf("handler ran %d times", got.Load())
	}
	method := sp.Method()
	ss := c.stageSetFor(method)
	if ss == nil {
		t.Fatalf("no StageSet for %q", method)
	}
	if n := ss.Stage(obsv.StageSend).Count(); n != 5 {
		t.Errorf("send-stage count = %d, want 5", n)
	}
	if n := ss.Stage(obsv.StageHandler).Count(); n != 5 {
		t.Errorf("handler-stage count = %d, want 5", n)
	}
	var sawSend, sawHandler bool
	for _, l := range c.Observe().Latencies {
		if l.Method == method && l.Stage == "send" && l.Count == 5 {
			sawSend = true
		}
		if l.Method == method && l.Stage == "handler" && l.Count == 5 {
			sawHandler = true
		}
	}
	if !sawSend || !sawHandler {
		t.Errorf("Observe missing stages: send=%v handler=%v\n%+v",
			sawSend, sawHandler, c.Observe().Latencies)
	}
}

// TestTraceCrossContextTCP is the acceptance scenario: a TCP ping between two
// contexts with tracing enabled must produce ONE trace ID visible in both
// contexts' dumps, with send+dial recorded at the sender and
// poll+queue+handler at the (threaded) receiver.
func TestTraceCrossContextTCP(t *testing.T) {
	recv := observeCtx(t, Options{
		Partition: "p0",
		Methods:   []MethodConfig{{Name: "tcp"}},
		Threaded:  true,
		dispatch:  dispatchConfig{lanes: 2, queueDepth: 64},
		Observe:   ObserveConfig{Trace: true},
	})
	send := observeCtx(t, Options{
		Partition: "p0",
		Methods:   []MethodConfig{{Name: "tcp"}},
		Observe:   ObserveConfig{Trace: true},
	})

	var got atomic.Int64
	ep := recv.NewEndpoint(WithHandler(func(ep *Endpoint, b *buffer.Buffer) {
		got.Add(1)
	}))
	sp := transferStartpoint(t, ep.NewStartpoint(), send, false)

	if err := sp.RSR("", nil); err != nil {
		t.Fatal(err)
	}
	if !recv.PollUntil(func() bool { return got.Load() > 0 }, 5*time.Second) {
		t.Fatal("RSR never delivered")
	}
	if m := sp.Method(); m != "tcp" {
		t.Fatalf("method = %q, want tcp", m)
	}

	// The sender's first send also dialed: find its trace ID.
	var tid obsv.TraceID
	for _, e := range send.TraceDump() {
		if e.Stage == obsv.StageSend && e.Method == "tcp" {
			tid = e.Trace
		}
	}
	if tid.IsZero() {
		t.Fatalf("no send event in sender dump: %v", send.TraceDump())
	}

	senderStages := stagesOf(eventsFor(send.TraceDump(), tid))
	if !senderStages[obsv.StageSend] || !senderStages[obsv.StageDial] {
		t.Errorf("sender stages for %s = %v, want send+dial", tid, senderStages)
	}

	// The receiver records its half asynchronously (lane worker): wait for
	// the handler event to land in the ring.
	deadline := time.Now().Add(5 * time.Second)
	var recvStages map[obsv.Stage]bool
	for {
		recvStages = stagesOf(eventsFor(recv.TraceDump(), tid))
		if recvStages[obsv.StageHandler] || time.Now().After(deadline) {
			break
		}
		recv.Poll()
		time.Sleep(time.Millisecond)
	}
	for _, st := range []obsv.Stage{obsv.StagePoll, obsv.StageQueueWait, obsv.StageHandler} {
		if !recvStages[st] {
			t.Errorf("receiver missing stage %s for trace %s (have %v)", st, tid, recvStages)
		}
	}

	// Same trace ID on both sides — that is the cross-context property.
	for _, e := range eventsFor(recv.TraceDump(), tid) {
		if e.Context != uint64(recv.ID()) {
			t.Errorf("receiver event recorded under context %d", e.Context)
		}
		if e.Peer != uint64(send.ID()) {
			t.Errorf("receiver event peer = %d, want sender %d", e.Peer, send.ID())
		}
	}
}

// TestTracePropagation checks the trace extension survives each transport:
// the receiver's handler event carries the sender's trace ID.
func TestTracePropagation(t *testing.T) {
	cases := []struct {
		name    string
		methods func(tag string) []MethodConfig
	}{
		{"inproc", func(tag string) []MethodConfig {
			return []MethodConfig{{Name: "inproc", Params: transport.Params{"exchange": tag}}}
		}},
		{"rudp", func(tag string) []MethodConfig {
			return []MethodConfig{{Name: "rudp"}}
		}},
		{"simnet", func(tag string) []MethodConfig {
			return []MethodConfig{{Name: "mpl", Params: transport.Params{
				"fabric": tag, "latency": "0s", "poll_cost": "0s"}}}
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			tag := "obs-trace-" + tc.name
			mk := func() *Context {
				c := observeCtx(t, Options{
					Partition: "p0",
					Methods:   tc.methods(tag),
				})
				c.EnableTracing(128)
				return c
			}
			recv, send := mk(), mk()
			var got atomic.Int64
			ep := recv.NewEndpoint(WithHandler(func(ep *Endpoint, b *buffer.Buffer) { got.Add(1) }))
			sp := transferStartpoint(t, ep.NewStartpoint(), send, false)
			if err := sp.RSR("", nil); err != nil {
				t.Fatal(err)
			}
			if !recv.PollUntil(func() bool { return got.Load() > 0 }, 5*time.Second) {
				t.Fatal("RSR never delivered")
			}
			var tid obsv.TraceID
			for _, e := range send.TraceDump() {
				if e.Stage == obsv.StageSend {
					tid = e.Trace
				}
			}
			if tid.IsZero() {
				t.Fatal("sender recorded no send event")
			}
			// The handler event lands synchronously inside the delivering
			// Poll, but give slow transports a grace loop.
			deadline := time.Now().Add(5 * time.Second)
			for {
				if stagesOf(eventsFor(recv.TraceDump(), tid))[obsv.StageHandler] {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("receiver has no handler event for trace %s: %v", tid, recv.TraceDump())
				}
				recv.Poll()
			}
		})
	}
}

// TestTraceSpansForwarder checks one trace ID crosses a relay hop: sender
// records send, the forwarder records relay, the member records handler —
// three contexts, one ID, because the relayed frame travels byte-for-byte.
func TestTraceSpansForwarder(t *testing.T) {
	tag := "obs-fwd-trace"
	fwd := newCtx(t, tag, "sp2", fastMPL(tag), fastWAN(tag))
	member := newCtx(t, tag, "sp2", fastMPL(tag))
	external := newCtx(t, tag, "outside", fastWAN(tag))
	for _, c := range []*Context{fwd, member, external} {
		c.EnableTracing(256)
	}

	fwd.EnableForwarding()
	fwd.RegisterPeerTable(member.AdvertisedTable())

	var got atomic.Int64
	ep := member.NewEndpoint(WithHandler(func(ep *Endpoint, b *buffer.Buffer) { got.Add(1) }))

	table := member.AdvertisedTable()
	fwdWan, ok := fwd.AdvertisedTable().Find("wan")
	if !ok {
		t.Fatal("forwarder has no wan descriptor")
	}
	table.Add(transport.Descriptor{Method: "wan", Context: member.ID(), Attrs: fwdWan.Attrs})
	spb := buffer.New(256)
	newStartpoint(member, &target{
		context: member.ID(), endpoint: ep.ID(), table: table,
	}).encode(spb, true)
	dec, err := buffer.FromBytes(spb.Encode())
	if err != nil {
		t.Fatal(err)
	}
	spExt, err := external.DecodeStartpoint(dec)
	if err != nil {
		t.Fatal(err)
	}
	if err := spExt.RSR("", nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for got.Load() == 0 && time.Now().Before(deadline) {
		fwd.Poll()
		member.Poll()
	}
	if got.Load() == 0 {
		t.Fatal("relayed RSR never delivered")
	}

	var tid obsv.TraceID
	for _, e := range external.TraceDump() {
		if e.Stage == obsv.StageSend {
			tid = e.Trace
		}
	}
	if tid.IsZero() {
		t.Fatal("external sender recorded no send event")
	}
	if !stagesOf(eventsFor(fwd.TraceDump(), tid))[obsv.StageRelay] {
		t.Errorf("forwarder has no relay event for trace %s: %v", tid, fwd.TraceDump())
	}
	if !stagesOf(eventsFor(member.TraceDump(), tid))[obsv.StageHandler] {
		t.Errorf("member has no handler event for trace %s: %v", tid, member.TraceDump())
	}
	// And the relay stage landed in the forwarder's histograms.
	if ss := fwd.stageSetFor("mpl"); ss == nil || ss.Stage(obsv.StageRelay).Count() == 0 {
		t.Error("forwarder relay-stage histogram empty")
	}
}

// TestTraceRingBounded checks the ring keeps only the newest events.
func TestTraceRingBounded(t *testing.T) {
	c := observeCtx(t, Options{Methods: []MethodConfig{inprocCfg()}})
	c.EnableTracing(16)
	ep := c.NewEndpoint(WithHandler(func(ep *Endpoint, b *buffer.Buffer) {}))
	sp := ep.NewStartpoint()
	for i := 0; i < 50; i++ {
		if err := sp.RSR("", nil); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Observe()
	if s.TraceBuffered > 16 || s.TraceCapacity != 16 {
		t.Errorf("ring buffered=%d cap=%d, want ≤16/16", s.TraceBuffered, s.TraceCapacity)
	}
	if s.TraceTotal < 50 {
		t.Errorf("ring total = %d, want ≥50 (50 sends, ≥1 event each)", s.TraceTotal)
	}
	if len(c.TraceDump()) != s.TraceBuffered {
		t.Errorf("dump length %d != buffered %d", len(c.TraceDump()), s.TraceBuffered)
	}
}

// simPair builds two contexts sharing a simnet fabric with myri and wan
// configured at the given static poll-cost hints, and returns the sending
// context plus a startpoint whose table carries both methods.
func simPair(t *testing.T, tag, myriCost, wanCost string) (*Context, *Startpoint) {
	t.Helper()
	params := func(cost string) transport.Params {
		return transport.Params{"fabric": tag, "latency": "0s", "poll_cost": cost}
	}
	mk := func() *Context {
		return observeCtx(t, Options{
			Partition: "p0",
			Methods: []MethodConfig{
				{Name: "myri", Params: params(myriCost)},
				{Name: "wan", Params: params(wanCost)},
			},
		})
	}
	recv, send := mk(), mk()
	ep := recv.NewEndpoint(WithHandler(func(ep *Endpoint, b *buffer.Buffer) {}))
	sp := transferStartpoint(t, ep.NewStartpoint(), send, false)
	return send, sp
}

// seedPoll fills a method's poll-stage histogram past the minObservedPolls
// threshold so measurement-driven selection trusts it.
func seedPoll(t *testing.T, c *Context, method string, d time.Duration) {
	t.Helper()
	ss := c.stageSetFor(method)
	if ss == nil {
		t.Fatalf("no StageSet for %q", method)
	}
	for i := 0; i < minObservedPolls; i++ {
		ss.Stage(obsv.StagePoll).Record(d)
	}
}

// TestCheapestPollUsesObservedCost is the selection acceptance test: with no
// measurements CheapestPoll ranks by static hints (myri, 10µs < wan, 100µs);
// once observed data says myri polls are actually expensive here, the same
// table selects wan instead — selection reordered by measurement alone.
func TestCheapestPollUsesObservedCost(t *testing.T) {
	send, sp := simPair(t, "obs-cheapest", "10us", "100us")
	table := sp.Table()

	d, err := CheapestPoll(send, table)
	if err != nil {
		t.Fatal(err)
	}
	if d.Method != "myri" {
		t.Fatalf("hint-ranked selection = %q, want myri", d.Method)
	}

	send.EnableStats()
	seedPoll(t, send, "myri", time.Millisecond)   // measured far above its hint
	seedPoll(t, send, "wan", 20*time.Microsecond) // measured far below its hint

	d, err = CheapestPoll(send, table)
	if err != nil {
		t.Fatal(err)
	}
	if d.Method != "wan" {
		t.Fatalf("measurement-ranked selection = %q, want wan", d.Method)
	}

	// Stats off again: the static hints rule once more.
	send.DisableObservability()
	d, err = CheapestPoll(send, table)
	if err != nil {
		t.Fatal(err)
	}
	if d.Method != "myri" {
		t.Fatalf("selection after disable = %q, want myri", d.Method)
	}
}

// TestCheapestPollIgnoresSparseData: below minObservedPolls samples the
// observed mean must not override the hint.
func TestCheapestPollIgnoresSparseData(t *testing.T) {
	send, sp := simPair(t, "obs-sparse", "10us", "100us")
	send.EnableStats()
	ss := send.stageSetFor("myri")
	for i := 0; i < minObservedPolls-1; i++ {
		ss.Stage(obsv.StagePoll).Record(time.Millisecond)
	}
	d, err := CheapestPoll(send, sp.Table())
	if err != nil {
		t.Fatal(err)
	}
	if d.Method != "myri" {
		t.Fatalf("sparse data flipped selection to %q", d.Method)
	}
}

// TestFastestObservedSelector: falls back to table order until send-stage
// measurements exist, then ranks by observed send latency.
func TestFastestObservedSelector(t *testing.T) {
	send, sp := simPair(t, "obs-fastest", "10us", "100us")
	table := sp.Table()

	d, err := FastestObserved(send, table)
	if err != nil {
		t.Fatal(err)
	}
	first, err := FirstApplicable(send, table)
	if err != nil {
		t.Fatal(err)
	}
	if d.Method != first.Method {
		t.Fatalf("unmeasured FastestObserved = %q, FirstApplicable = %q", d.Method, first.Method)
	}

	send.EnableStats()
	for i := 0; i < minObservedPolls; i++ {
		send.stageSetFor("myri").Stage(obsv.StageSend).Record(500 * time.Microsecond)
		send.stageSetFor("wan").Stage(obsv.StageSend).Record(50 * time.Microsecond)
	}
	d, err = FastestObserved(send, table)
	if err != nil {
		t.Fatal(err)
	}
	if d.Method != "wan" {
		t.Fatalf("measured FastestObserved = %q, want wan", d.Method)
	}
}

// TestObservedPollCostInMethods: the enquiry API surfaces measured poll cost
// once the histogram has enough samples.
func TestObservedPollCostInMethods(t *testing.T) {
	c := observeCtx(t, Options{
		Methods: []MethodConfig{{Name: "mpl", Params: transport.Params{
			"fabric": "obs-enquiry", "latency": "0s", "poll_cost": "5us"}}},
		Observe: ObserveConfig{Stats: true},
	})
	find := func() MethodInfo {
		for _, mi := range c.Methods() {
			if mi.Name == "mpl" {
				return mi
			}
		}
		t.Fatal("mpl missing from Methods()")
		return MethodInfo{}
	}
	if got := find().ObservedPollCost; got != 0 {
		t.Fatalf("ObservedPollCost before sampling = %s", got)
	}
	seedPoll(t, c, "mpl", 25*time.Microsecond)
	got := find().ObservedPollCost
	if got < 16*time.Microsecond || got > 40*time.Microsecond {
		t.Errorf("ObservedPollCost = %s, want ≈25µs", got)
	}
}

// TestPollStageRecorded: driving Poll on a stats-enabled context populates
// the poll-stage histogram for each polled method.
func TestPollStageRecorded(t *testing.T) {
	c := observeCtx(t, Options{
		Methods: []MethodConfig{{Name: "mpl", Params: transport.Params{
			"fabric": "obs-pollstage", "latency": "0s", "poll_cost": "0s"}}},
		Observe: ObserveConfig{Stats: true},
	})
	for i := 0; i < 20; i++ {
		c.Poll()
	}
	ss := c.stageSetFor("mpl")
	if n := ss.Stage(obsv.StagePoll).Count(); n < 20 {
		t.Errorf("poll-stage count = %d, want ≥20", n)
	}
}
