package core

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nexus/internal/buffer"
	"nexus/internal/reactor"
	"nexus/internal/transport"
	"nexus/internal/transport/shm"

	_ "nexus/internal/transport/udp"
)

// TestReactorActivation checks the default-on/opt-out matrix: where the
// platform has a reactor, socket-backed methods come up reactive and
// disableReactor forces them back to polling; off-Linux everything is
// poll-based and the same options still construct fine.
func TestReactorActivation(t *testing.T) {
	ctx, err := NewContext(Options{
		Methods: []MethodConfig{{Name: "tcp"}, {Name: "udp"}, {Name: "rudp"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	if ctx.ReactorActive() != reactor.Supported() {
		t.Fatalf("ReactorActive() = %v, Supported() = %v", ctx.ReactorActive(), reactor.Supported())
	}
	for _, mi := range ctx.Methods() {
		switch mi.Name {
		case "tcp", "udp", "rudp":
			if mi.Reactive != reactor.Supported() {
				t.Errorf("method %s Reactive = %v, want %v", mi.Name, mi.Reactive, reactor.Supported())
			}
		case "local":
			if mi.Reactive {
				t.Errorf("memory-backed method %s reported reactive", mi.Name)
			}
		}
	}

	off, err := NewContext(Options{
		Methods:        []MethodConfig{{Name: "tcp"}, {Name: "udp"}},
		disableReactor: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	if off.ReactorActive() {
		t.Fatal("ReactorActive() with disableReactor set")
	}
	for _, mi := range off.Methods() {
		if mi.Reactive {
			t.Errorf("method %s reactive despite disableReactor", mi.Name)
		}
	}
}

// TestReactorIdlePassesSkipReactiveModules is the economy the reactor exists
// for: once the seed drain has run, idle poll passes touch a reactive module
// only for the periodic cold safety probe — one pass in reactiveColdProbe —
// while a poll-based module is probed on every pass.
func TestReactorIdlePassesSkipReactiveModules(t *testing.T) {
	ctx, err := NewContext(Options{
		Methods: []MethodConfig{{Name: "udp"}, {Name: "tcp"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	if !ctx.ReactorActive() {
		t.Skip("no reactor on this platform")
	}
	// Consume the post-attach seed bit, then let the hot grace window the
	// seed edge armed decay to zero.
	for i := 0; i <= reactiveHotPasses; i++ {
		ctx.Poll()
	}
	before := map[string]uint64{}
	for _, mi := range ctx.Methods() {
		before[mi.Name] = mi.Polls
	}
	const passes = 8 * reactiveColdProbe
	for i := 0; i < passes; i++ {
		ctx.Poll()
	}
	const maxProbes = (passes + reactiveColdProbe - 1) / reactiveColdProbe
	for _, mi := range ctx.Methods() {
		switch mi.Name {
		case "udp", "tcp":
			if got := mi.Polls - before[mi.Name]; got > maxProbes {
				t.Errorf("reactive %s polled %d times across %d idle passes, want at most %d", mi.Name, got, passes, maxProbes)
			}
		case "local":
			if got := mi.Polls - before[mi.Name]; got != passes {
				t.Errorf("poll-based %s polled %d times across %d passes, want %d", mi.Name, got, passes, passes)
			}
		}
	}
}

// TestSetSkipPollOnReactiveMethod: a skip_poll value set by hand applies to a
// method the reactor watches too — real tcp, default options — and
// UnpinSkipPoll hands the method back to readiness-driven detection.
func TestSetSkipPollOnReactiveMethod(t *testing.T) {
	ctx, err := NewContext(Options{Methods: []MethodConfig{{Name: "tcp"}}})
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	polls := func() uint64 {
		for _, mi := range ctx.Methods() {
			if mi.Name == "tcp" {
				return mi.Polls
			}
		}
		t.Fatal("tcp not enabled")
		return 0
	}
	if err := ctx.SetSkipPoll("tcp", 20); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		ctx.Poll()
	}
	if got := polls(); got != 5 {
		t.Errorf("tcp with skip_poll 20 polled %d times in 100 passes, want 5", got)
	}
	if !ctx.ReactorActive() {
		return
	}
	if err := ctx.UnpinSkipPoll("tcp"); err != nil {
		t.Fatal(err)
	}
	// The drain UnpinSkipPoll seeds arms a hot window; let it decay.
	for i := 0; i <= reactiveHotPasses; i++ {
		ctx.Poll()
	}
	before := polls()
	for i := 0; i < 100; i++ {
		ctx.Poll()
	}
	if got := polls() - before; got > 1 {
		t.Errorf("unpinned tcp polled %d times in 100 idle passes, want at most the one cold probe", got)
	}
}

// reactorRoundTrip sends count RSRs from a fresh sender to a fresh receiver
// over the named method and waits for all of them to arrive.
func reactorRoundTrip(t *testing.T, method string, disable bool, count int) {
	t.Helper()
	recv, err := NewContext(Options{
		Methods:        []MethodConfig{{Name: method}},
		disableReactor: disable,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	send, err := NewContext(Options{
		Methods:        []MethodConfig{{Name: method}},
		disableReactor: disable,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()

	var got atomic.Int64
	ep := recv.NewEndpoint(WithHandler(func(ep *Endpoint, b *buffer.Buffer) {
		got.Add(1)
	}))
	sp := transferStartpoint(t, ep.NewStartpoint(), send, false)
	// Blocking-window methods (rudp) need the receiver polling while the
	// sender sits inside RSR — the receiver's polls produce the ACKs.
	startPolling(t, recv)
	for i := 0; i < count; i++ {
		b := buffer.New(32)
		b.PutInt(i)
		if err := sp.RSR("", b); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for got.Load() < int64(count) {
		if time.Now().After(deadline) {
			t.Fatalf("%s (disable=%v): delivered %d of %d", method, disable, got.Load(), count)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReactorRoundTrip exercises delivery through the readiness path (and
// the portable fallback, as a control) for every reactor-capable method.
func TestReactorRoundTrip(t *testing.T) {
	for _, method := range []string{"tcp", "udp", "rudp"} {
		for _, disable := range []bool{false, true} {
			name := fmt.Sprintf("%s/disable=%v", method, disable)
			t.Run(name, func(t *testing.T) {
				reactorRoundTrip(t, method, disable, 50)
			})
		}
	}
}

// TestReactorRuntimeEnable checks that a method enabled after construction
// still joins the reactor.
func TestReactorRuntimeEnable(t *testing.T) {
	ctx, err := NewContext(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	if !ctx.ReactorActive() {
		t.Skip("no reactor on this platform")
	}
	if err := ctx.EnableMethod(MethodConfig{Name: "udp"}); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, mi := range ctx.Methods() {
		if mi.Name == "udp" {
			found = true
			if !mi.Reactive {
				t.Error("runtime-enabled udp not reactive")
			}
		}
	}
	if !found {
		t.Fatal("udp not listed after EnableMethod")
	}
}

// TestReactorDisableMethod checks that disabling a reactive method tears its
// registrations down cleanly (no panic, remaining methods keep working).
func TestReactorDisableMethod(t *testing.T) {
	ctx, err := NewContext(Options{
		Methods: []MethodConfig{{Name: "udp"}, {Name: "tcp"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	if err := ctx.DisableMethod("udp"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		ctx.Poll()
	}
}

// TestReactiveMethodsEnquiry checks the ReactiveMethods listing.
func TestReactiveMethodsEnquiry(t *testing.T) {
	ctx, err := NewContext(Options{
		Methods: []MethodConfig{{Name: "udp"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	names := ctx.ReactiveMethods()
	if ctx.ReactorActive() {
		if len(names) != 1 || names[0] != "udp" {
			t.Fatalf("ReactiveMethods() = %v, want [udp]", names)
		}
	} else if len(names) != 0 {
		t.Fatalf("ReactiveMethods() = %v on platform without reactor", names)
	}
}

// TestReactorPollCostEstimate checks that selection sees reactor-backed
// methods as nearly free, per the collapsed detection cost.
func TestReactorPollCostEstimate(t *testing.T) {
	ctx, err := NewContext(Options{
		Methods: []MethodConfig{{Name: "tcp"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	ms := ctx.moduleFor("tcp")
	if ms == nil {
		t.Fatal("no tcp module")
	}
	cost := ctx.pollCostEstimate(ms)
	if ctx.ReactorActive() {
		if cost != reactivePollCost {
			t.Fatalf("reactive tcp pollCostEstimate = %v, want %v", cost, reactivePollCost)
		}
	} else if cost != 100*time.Microsecond {
		t.Fatalf("poll-based tcp pollCostEstimate = %v, want its 100µs hint", cost)
	}
}

// TestReactorAddFailureIsCounted: a failed epoll registration leaves the
// socket to the cold probe alone, so it must be counted and logged even when
// the module that asked ignores the error — and equally when it is the
// re-registration at the end of a hot window that fails, where there is no
// caller to return an error to.
func TestReactorAddFailureIsCounted(t *testing.T) {
	var logged []error
	ctx, err := NewContext(Options{
		Methods:  []MethodConfig{{Name: "tcp"}},
		errorLog: func(err error) { logged = append(logged, err) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	if !ctx.ReactorActive() {
		t.Skip("no reactor on this platform")
	}
	// A descriptor number above any RLIMIT_NOFILE is closed and stays
	// closed; the number of a pipe closed a moment ago could be handed to a
	// socket the context's own goroutines open in between.
	const closedFD = 1 << 30
	rd := ctx.moduleFor("tcp").rd
	if err := rd.Add(closedFD); err == nil {
		t.Fatal("Add of a closed fd succeeded")
	}
	if got := ctx.Stats().Get("reactor.add_failed"); got != 1 {
		t.Errorf("reactor.add_failed = %d, want 1", got)
	}
	if len(logged) != 1 || !strings.Contains(logged[0].Error(), "watching tcp fd") {
		t.Errorf("errorLog got %v, want one registration failure", logged)
	}

	// While suspended an Add only joins the set; the kernel sees it on resume.
	rd.suspend()
	if err := rd.Add(closedFD); err != nil {
		t.Fatalf("Add while suspended: %v", err)
	}
	rd.resume()
	if got := ctx.Stats().Get("reactor.add_failed"); got != 2 {
		t.Errorf("reactor.add_failed = %d after a failed resume, want 2", got)
	}
	if len(logged) != 2 || !strings.Contains(logged[1].Error(), "watching tcp fd") {
		t.Errorf("errorLog got %v, want a second registration failure", logged)
	}
	rd.mu.Lock()
	_, kept := rd.fds[closedFD]
	rd.mu.Unlock()
	if kept {
		t.Error("resume kept an fd the kernel refused")
	}
}

// TestShmWinsCheapestPoll lists tcp ahead of shm in the table, then asks the
// cost-based selector to choose: shm's microsecond poll hint must beat tcp's
// hundred-microsecond readiness scan, exactly how the paper's "fastest
// mechanism the link supports" rule is meant to fall out of measurements
// rather than table order. The reactor is disabled because reactor-attached
// methods all report the same near-zero idle cost (ties break by table
// order); on the portable polling path the per-method hints differentiate.
func TestShmWinsCheapestPoll(t *testing.T) {
	if !shm.Supported() {
		t.Skip("shm transport requires linux")
	}
	mk := func() *Context {
		c, err := NewContext(Options{
			Methods: []MethodConfig{
				{Name: "tcp"},
				{Name: "shm", Params: transport.Params{"dir": t.TempDir()}},
			},
			Selector:       CheapestPoll,
			disableReactor: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	server := mk()
	client := mk()

	var hits atomic.Int64
	server.RegisterHandler("h", func(*Endpoint, *buffer.Buffer) { hits.Add(1) })
	ep := server.NewEndpoint()
	sp, err := TransferStartpoint(ep.NewStartpoint(), client)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.SelectMethod(); err != nil {
		t.Fatal(err)
	}
	if m := sp.Method(); m != "shm" {
		t.Fatalf("CheapestPoll selected %q, want shm", m)
	}
	if err := sp.RSR("h", nil); err != nil {
		t.Fatal(err)
	}
	if !server.PollUntil(func() bool { return hits.Load() == 1 }, 5*time.Second) {
		t.Fatal("RSR not delivered")
	}
}
