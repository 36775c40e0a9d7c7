package core

import (
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"nexus/internal/buffer"
	"nexus/internal/transport"
)

// fastMPL returns an mpl method config with all modelled delays zeroed, so
// polling semantics can be tested without timing effects.
func fastMPL(tag string) MethodConfig {
	return MethodConfig{Name: "mpl", Params: transport.Params{
		"fabric": tag, "latency": "0", "poll_cost": "0", "bandwidth": "0",
	}}
}

func fastWAN(tag string) MethodConfig {
	return MethodConfig{Name: "wan", Params: transport.Params{
		"fabric": tag, "latency": "0", "poll_cost": "0", "bandwidth": "0",
	}}
}

func TestSkipPollRatio(t *testing.T) {
	tag := "skip-ratio"
	c := newCtx(t, tag, "p0", fastMPL(tag), fastWAN(tag))
	if err := c.SetSkipPoll("wan", 10); err != nil {
		t.Fatal(err)
	}
	if got := c.SkipPoll("wan"); got != 10 {
		t.Fatalf("SkipPoll(wan) = %d", got)
	}
	const passes = 100
	for i := 0; i < passes; i++ {
		c.Poll()
	}
	mplPolls := c.Stats().Get("poll.mpl")
	wanPolls := c.Stats().Get("poll.wan")
	if mplPolls != passes {
		t.Errorf("mpl polled %d times in %d passes", mplPolls, passes)
	}
	if wanPolls != passes/10 {
		t.Errorf("wan polled %d times in %d passes with skip 10", wanPolls, passes)
	}
}

func TestSetSkipPollErrors(t *testing.T) {
	tag := "skip-err"
	c := newCtx(t, tag, "", inprocCfg())
	if err := c.SetSkipPoll("nope", 5); !errors.Is(err, ErrUnknownMethod) {
		t.Errorf("SetSkipPoll(nope) = %v", err)
	}
	// k<1 clamps to 1.
	if err := c.SetSkipPoll("inproc", 0); err != nil {
		t.Fatal(err)
	}
	if got := c.SkipPoll("inproc"); got != 1 {
		t.Errorf("clamped skip = %d", got)
	}
	if got := c.SkipPoll("nope"); got != 0 {
		t.Errorf("SkipPoll(nope) = %d", got)
	}
}

func TestSkipPollStillDelivers(t *testing.T) {
	tag := "skip-deliver"
	recv := newCtx(t, tag, "p0", fastWAN(tag))
	send := newCtx(t, tag, "p1", fastWAN(tag))
	if err := recv.SetSkipPoll("wan", 7); err != nil {
		t.Fatal(err)
	}
	var hits atomic.Int64
	ep := recv.NewEndpoint(WithHandler(func(*Endpoint, *buffer.Buffer) { hits.Add(1) }))
	sp := transferStartpoint(t, ep.NewStartpoint(), send, false)
	if err := sp.RSR("", nil); err != nil {
		t.Fatal(err)
	}
	// With skip 7 the frame arrives within at most 7 passes.
	for i := 0; i < 7 && hits.Load() == 0; i++ {
		recv.Poll()
	}
	if hits.Load() != 1 {
		t.Fatalf("frame not delivered within skip window (hits=%d)", hits.Load())
	}
}

func TestAutoSkipPoll(t *testing.T) {
	tag := "auto-skip"
	c := newCtx(t, tag, "p0",
		MethodConfig{Name: "mpl", Params: transport.Params{"fabric": tag, "poll_cost": "10us", "latency": "0", "bandwidth": "0"}},
		MethodConfig{Name: "wan", Params: transport.Params{"fabric": tag, "poll_cost": "100us", "latency": "0", "bandwidth": "0"}},
	)
	c.AutoSkipPoll()
	if got := c.SkipPoll("mpl"); got != 1 {
		t.Errorf("mpl skip = %d, want 1 (cheapest)", got)
	}
	if got := c.SkipPoll("wan"); got != 10 {
		t.Errorf("wan skip = %d, want 10 (10x cost ratio)", got)
	}
}

// TestAutoSkipPollIgnoresReactive: a reactive tcp is detected by readiness,
// so its nominal per-pass cost must not set the scale. Beside it, mpl is the
// cheapest polled method and keeps skip 1: the paper's MPL+TCP configuration
// with its fast method polled on every pass.
func TestAutoSkipPollIgnoresReactive(t *testing.T) {
	tag := "auto-skip-reactive"
	c := newCtx(t, tag, "p0",
		MethodConfig{Name: "mpl", Params: transport.Params{"fabric": tag, "poll_cost": "3us"}},
		MethodConfig{Name: "tcp"},
	)
	if !slices.Contains(c.ReactiveMethods(), "tcp") {
		t.Skip("tcp is not readiness-driven here")
	}
	c.AutoSkipPoll()
	if got := c.SkipPoll("mpl"); got != 1 {
		t.Errorf("mpl skip = %d, want 1 (cheapest polled method)", got)
	}
	c.adaptOnce(adaptiveMaxSkip, map[string]uint64{})
	if got := c.SkipPoll("mpl"); got != 1 {
		t.Errorf("mpl skip after a tuner round = %d, want 1", got)
	}
}

func TestMethodsEnquiry(t *testing.T) {
	tag := "enquiry"
	c := newCtx(t, tag, "p0", fastMPL(tag))
	if err := c.SetSkipPoll("mpl", 4); err != nil {
		t.Fatal(err)
	}
	c.Poll()
	infos := c.Methods()
	if len(infos) != 2 { // local + mpl
		t.Fatalf("Methods len = %d: %+v", len(infos), infos)
	}
	if infos[0].Name != "local" || infos[1].Name != "mpl" {
		t.Errorf("order = %s,%s", infos[0].Name, infos[1].Name)
	}
	mpl := infos[1]
	if mpl.SkipPoll != 4 {
		t.Errorf("SkipPoll = %d", mpl.SkipPoll)
	}
	if mpl.Descriptor == nil || mpl.Descriptor.Method != "mpl" {
		t.Errorf("Descriptor = %v", mpl.Descriptor)
	}
	if mpl.Polls != 1 {
		t.Errorf("Polls = %d", mpl.Polls)
	}
}

func TestForwardingRelay(t *testing.T) {
	// Configuration mirroring the paper's §3.3: external traffic for member
	// M arrives at forwarder F over the expensive method; F relays it to M
	// over the cheap partition method. M itself never enables the expensive
	// method.
	tag := "fwd-relay"
	fwd := newCtx(t, tag, "sp2", fastMPL(tag), fastWAN(tag))
	member := newCtx(t, tag, "sp2", fastMPL(tag))
	external := newCtx(t, tag, "outside", fastWAN(tag))

	fwd.EnableForwarding()
	if !fwd.ForwardingEnabled() {
		t.Fatal("forwarding not enabled")
	}
	fwd.RegisterPeerTable(member.AdvertisedTable())

	var got atomic.Value
	ep := member.NewEndpoint(WithHandler(func(ep *Endpoint, b *buffer.Buffer) {
		got.Store(b.String())
	}))

	// Build the member's outward-facing table: its own table with the wan
	// entry pointing at the forwarder.
	table := member.AdvertisedTable()
	fwdWan, ok := fwd.AdvertisedTable().Find("wan")
	if !ok {
		t.Fatal("forwarder has no wan descriptor")
	}
	table.Add(transport.Descriptor{Method: "wan", Context: member.ID(), Attrs: fwdWan.Attrs})

	sp := ep.NewStartpoint()
	spb := buffer.New(256)
	// Encode a startpoint that carries the rewritten table.
	spRewritten := &Startpoint{owner: member, targets: []*target{{
		context: member.ID(), endpoint: ep.ID(), table: table,
	}}}
	spRewritten.encode(spb, true)
	dec, err := buffer.FromBytes(spb.Encode())
	if err != nil {
		t.Fatal(err)
	}
	spExt, err := external.DecodeStartpoint(dec)
	if err != nil {
		t.Fatal(err)
	}
	_ = sp

	b := buffer.New(32)
	b.PutString("via forwarder")
	if err := spExt.RSR("", b); err != nil {
		t.Fatal(err)
	}
	if m := spExt.Method(); m != "wan" {
		t.Errorf("external selected %q, want wan", m)
	}

	deadline := time.Now().Add(5 * time.Second)
	for got.Load() == nil && time.Now().Before(deadline) {
		fwd.Poll()
		member.Poll()
	}
	if got.Load() != "via forwarder" {
		t.Fatalf("member got %v", got.Load())
	}
	if fwd.Stats().Get("forward.relayed") != 1 {
		t.Errorf("forward.relayed = %d", fwd.Stats().Get("forward.relayed"))
	}
	// The member's handler ran; the forwarder never delivered locally.
	if fwd.Stats().Get("rsr.recv") != 0 {
		t.Errorf("forwarder rsr.recv = %d", fwd.Stats().Get("rsr.recv"))
	}
}

func TestForwardingDisabledDrops(t *testing.T) {
	tag := "fwd-drop"
	var errCount atomic.Int64
	notFwd, err := NewContext(Options{
		Partition: "sp2",
		Methods: []MethodConfig{
			{Name: "wan", Params: transport.Params{"fabric": tag, "latency": "0", "poll_cost": "0", "bandwidth": "0"}},
		},
		errorLog: func(error) { errCount.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer notFwd.Close()
	external := newCtx(t, tag, "outside", fastWAN(tag))

	// Hand-build a frame addressed to a context other than notFwd and send
	// it to notFwd's wan address.
	wanDesc, ok := notFwd.AdvertisedTable().Find("wan")
	if !ok {
		t.Fatal("no wan descriptor")
	}
	bogus := transport.Descriptor{Method: "wan", Context: 99999, Attrs: wanDesc.Attrs}
	tbl := transport.NewTable(bogus)
	spBogus := &Startpoint{owner: external, targets: []*target{{
		context: 99999, endpoint: 1, table: tbl,
	}}}
	if err := spBogus.RSR("", nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for errCount.Load() == 0 && time.Now().Before(deadline) {
		notFwd.Poll()
	}
	if errCount.Load() == 0 {
		t.Fatal("misaddressed frame not reported")
	}
	if notFwd.Stats().Get("forward.dropped") != 1 {
		t.Errorf("forward.dropped = %d", notFwd.Stats().Get("forward.dropped"))
	}
}

func TestForwarderWithoutRouteDrops(t *testing.T) {
	tag := "fwd-noroute"
	fwd := newCtx(t, tag, "sp2", fastMPL(tag), fastWAN(tag))
	fwd.EnableForwarding()
	external := newCtx(t, tag, "outside", fastWAN(tag))

	wanDesc, _ := fwd.AdvertisedTable().Find("wan")
	tbl := transport.NewTable(transport.Descriptor{Method: "wan", Context: 88888, Attrs: wanDesc.Attrs})
	sp := &Startpoint{owner: external, targets: []*target{{context: 88888, endpoint: 1, table: tbl}}}
	if err := sp.RSR("", nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for fwd.Stats().Get("forward.dropped") == 0 && time.Now().Before(deadline) {
		fwd.Poll()
	}
	if fwd.Stats().Get("forward.dropped") != 1 {
		t.Errorf("forward.dropped = %d", fwd.Stats().Get("forward.dropped"))
	}
}

func TestRewriteForForwarder(t *testing.T) {
	tbl := transport.NewTable(
		transport.Descriptor{Method: "mpl", Context: 5, Attrs: map[string]string{"partition": "a"}},
		transport.Descriptor{Method: "tcp", Context: 5, Attrs: map[string]string{"addr": "member:1"}},
	)
	fwdDesc := transport.Descriptor{Method: "tcp", Context: 9, Attrs: map[string]string{"addr": "fwd:1"}}
	if !RewriteForForwarder(tbl, "tcp", fwdDesc) {
		t.Fatal("RewriteForForwarder found nothing")
	}
	d, ok := tbl.Find("tcp")
	if !ok {
		t.Fatal("tcp entry vanished")
	}
	if d.Context != 5 {
		t.Errorf("rewritten entry context = %d, want 5 (final destination)", d.Context)
	}
	if d.Attr("addr") != "fwd:1" {
		t.Errorf("rewritten addr = %q", d.Attr("addr"))
	}
	if RewriteForForwarder(tbl, "udp", fwdDesc) {
		t.Error("rewrite of absent method reported success")
	}
}

func TestCheapestPollSelector(t *testing.T) {
	tag := "cheapest"
	recv, err := NewContext(Options{
		Partition: "p0",
		Methods: []MethodConfig{
			{Name: "wan", Params: transport.Params{"fabric": tag, "latency": "0", "poll_cost": "100us", "bandwidth": "0"}},
			{Name: "mpl", Params: transport.Params{"fabric": tag, "latency": "0", "poll_cost": "10us", "bandwidth": "0"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	send, err := NewContext(Options{
		Partition: "p0",
		Selector:  CheapestPoll,
		Methods: []MethodConfig{
			{Name: "wan", Params: transport.Params{"fabric": tag, "latency": "0", "poll_cost": "100us", "bandwidth": "0"}},
			{Name: "mpl", Params: transport.Params{"fabric": tag, "latency": "0", "poll_cost": "10us", "bandwidth": "0"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()

	ep := recv.NewEndpoint(WithHandler(func(*Endpoint, *buffer.Buffer) {}))
	// Note the received table lists wan before mpl; FirstApplicable would
	// pick wan, CheapestPoll must pick mpl.
	sp := transferStartpoint(t, ep.NewStartpoint(), send, false)
	if _, err := sp.SelectMethod(); err != nil {
		t.Fatal(err)
	}
	if m := sp.Method(); m != "mpl" {
		t.Errorf("CheapestPoll selected %q, want mpl", m)
	}
}

func TestPreferOrderSelector(t *testing.T) {
	tag := "prefer"
	recv, err := NewContext(Options{
		Partition: "p0",
		Methods: []MethodConfig{
			{Name: "mpl", Params: transport.Params{"fabric": tag, "latency": "0", "poll_cost": "0", "bandwidth": "0"}},
			{Name: "wan", Params: transport.Params{"fabric": tag, "latency": "0", "poll_cost": "0", "bandwidth": "0"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	send, err := NewContext(Options{
		Partition: "p0",
		Selector:  PreferOrder("wan"),
		Methods: []MethodConfig{
			{Name: "mpl", Params: transport.Params{"fabric": tag, "latency": "0", "poll_cost": "0", "bandwidth": "0"}},
			{Name: "wan", Params: transport.Params{"fabric": tag, "latency": "0", "poll_cost": "0", "bandwidth": "0"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()

	ep := recv.NewEndpoint(WithHandler(func(*Endpoint, *buffer.Buffer) {}))
	sp := transferStartpoint(t, ep.NewStartpoint(), send, false)
	if _, err := sp.SelectMethod(); err != nil {
		t.Fatal(err)
	}
	if m := sp.Method(); m != "wan" {
		t.Errorf("PreferOrder(wan) selected %q", m)
	}
	// PreferOrder falls back to table order when preferences do not apply.
	send2, err := NewContext(Options{
		Partition: "p0",
		Selector:  PreferOrder("atm"),
		Methods: []MethodConfig{
			{Name: "mpl", Params: transport.Params{"fabric": tag, "latency": "0", "poll_cost": "0", "bandwidth": "0"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer send2.Close()
	sp2 := transferStartpoint(t, ep.NewStartpoint(), send2, false)
	if _, err := sp2.SelectMethod(); err != nil {
		t.Fatal(err)
	}
	if m := sp2.Method(); m != "mpl" {
		t.Errorf("PreferOrder fallback selected %q", m)
	}
}

func TestNoApplicableMethod(t *testing.T) {
	tagA, tagB := "island-a", "island-b"
	recv := newCtx(t, tagA, "", inprocCfg())
	send := newCtx(t, tagB, "", inprocCfg()) // different exchange: unreachable

	ep := recv.NewEndpoint(WithHandler(func(*Endpoint, *buffer.Buffer) {}))
	sp := transferStartpoint(t, ep.NewStartpoint(), send, false)
	if _, err := sp.SelectMethod(); !errors.Is(err, ErrNoApplicableMethod) {
		t.Errorf("SelectMethod across islands: %v", err)
	}
	if err := sp.RSR("", nil); !errors.Is(err, ErrNoApplicableMethod) {
		t.Errorf("RSR across islands: %v", err)
	}
}

func TestPollOnRSRProgress(t *testing.T) {
	// With PollOnRSR (default), two contexts that only ever send still make
	// receive progress, because each RSR polls opportunistically.
	tag := "poll-on-rsr"
	a := newCtx(t, tag, "", inprocCfg())
	b := newCtx(t, tag, "", inprocCfg())

	var aGot, bGot atomic.Int64
	epA := a.NewEndpoint(WithHandler(func(*Endpoint, *buffer.Buffer) { aGot.Add(1) }))
	epB := b.NewEndpoint(WithHandler(func(*Endpoint, *buffer.Buffer) { bGot.Add(1) }))
	spToB := transferStartpoint(t, epB.NewStartpoint(), a, false)
	spToA := transferStartpoint(t, epA.NewStartpoint(), b, false)

	const n = 20
	for i := 0; i < n; i++ {
		if err := spToB.RSR("", nil); err != nil {
			t.Fatal(err)
		}
		if err := spToA.RSR("", nil); err != nil {
			t.Fatal(err)
		}
	}
	// No explicit polls: deliveries happened during RSR calls (all but
	// possibly the last round, which nothing followed).
	if aGot.Load() < n-1 || bGot.Load() < n-1 {
		t.Errorf("opportunistic polling delivered a=%d b=%d of %d", aGot.Load(), bGot.Load(), n)
	}
	if got := a.Stats().Get("poll.passes"); got == 0 {
		t.Error("no poll passes recorded despite PollOnRSR")
	}
}

func TestDisableMethodTriggersFailover(t *testing.T) {
	tag := "disable-failover"
	recv := newCtx(t, tag, "p0", fastMPL(tag), inprocCfg())
	send := newCtx(t, tag, "p0", fastMPL(tag), inprocCfg())

	var hits atomic.Int64
	ep := recv.NewEndpoint(WithHandler(func(*Endpoint, *buffer.Buffer) { hits.Add(1) }))
	sp := transferStartpoint(t, ep.NewStartpoint(), send, false)
	sp.SetFailover(true)
	if err := sp.RSR("", nil); err != nil {
		t.Fatal(err)
	}
	if m := sp.Method(); m != "mpl" {
		t.Fatalf("initial method = %q", m)
	}
	if !recv.PollUntil(func() bool { return hits.Load() == 1 }, 5*time.Second) {
		t.Fatal("first RSR not delivered")
	}

	// Simulate substrate failure: the receiver's mpl module dies.
	if err := recv.DisableMethod("mpl"); err != nil {
		t.Fatal(err)
	}
	if err := sp.RSR("", nil); err != nil {
		t.Fatal(err)
	}
	if m := sp.Method(); m != "inproc" {
		t.Errorf("after failure, method = %q, want inproc", m)
	}
	if !recv.PollUntil(func() bool { return hits.Load() == 2 }, 5*time.Second) {
		t.Fatal("failover RSR not delivered")
	}
	// Enquiry: mpl is gone from the receiver's method list.
	for _, mi := range recv.Methods() {
		if mi.Name == "mpl" {
			t.Error("mpl still listed after DisableMethod")
		}
	}
	if err := recv.DisableMethod("mpl"); !errors.Is(err, ErrUnknownMethod) {
		t.Errorf("second DisableMethod = %v", err)
	}
}

func TestDisablePollOnRSR(t *testing.T) {
	tag := "no-poll-on-rsr"
	a, err := NewContext(Options{
		Methods:          []MethodConfig{{Name: "inproc", Params: transport.Params{"exchange": tag}}},
		DisablePollOnRSR: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b := newCtx(t, tag, "", inprocCfg())

	var aGot atomic.Int64
	epA := a.NewEndpoint(WithHandler(func(*Endpoint, *buffer.Buffer) { aGot.Add(1) }))
	spToA := transferStartpoint(t, epA.NewStartpoint(), b, false)
	epB := b.NewEndpoint(WithHandler(func(*Endpoint, *buffer.Buffer) {}))
	spToB := transferStartpoint(t, epB.NewStartpoint(), a, false)

	if err := spToA.RSR("", nil); err != nil {
		t.Fatal(err)
	}
	// a sends without polling: the pending inbound frame must stay queued.
	if err := spToB.RSR("", nil); err != nil {
		t.Fatal(err)
	}
	if aGot.Load() != 0 {
		t.Error("frame delivered despite DisablePollOnRSR")
	}
	if got := a.Stats().Get("poll.passes"); got != 0 {
		t.Errorf("poll.passes = %d with DisablePollOnRSR", got)
	}
	a.Poll()
	if aGot.Load() != 1 {
		t.Error("explicit Poll did not deliver")
	}
}
