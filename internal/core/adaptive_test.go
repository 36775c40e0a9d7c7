package core

import (
	"sync/atomic"
	"testing"
	"time"

	"nexus/internal/buffer"
	"nexus/internal/transport"
)

// adaptCtx builds a context with a cheap mpl and an expensive wan module.
func adaptCtx(t *testing.T, tag string) *Context {
	t.Helper()
	return newCtx(t, tag, "p0",
		MethodConfig{Name: "mpl", Params: transport.Params{"fabric": tag, "poll_cost": "10us", "latency": "0", "bandwidth": "0"}},
		MethodConfig{Name: "wan", Params: transport.Params{"fabric": tag, "poll_cost": "100us", "latency": "0", "bandwidth": "0"}},
	)
}

func TestAdaptiveBacksOffIdleMethod(t *testing.T) {
	c := adaptCtx(t, "adapt-idle")
	last := make(map[string]uint64)
	for i := 0; i < 10; i++ {
		c.adaptOnce(64, last)
	}
	if got := c.SkipPoll("wan"); got != 64 {
		t.Errorf("idle wan skip = %d, want capped at 64", got)
	}
	// The cheap method is never throttled.
	if got := c.SkipPoll("mpl"); got != 1 {
		t.Errorf("cheap mpl skip = %d, want 1", got)
	}
}

func TestAdaptiveSnapsBackOnTraffic(t *testing.T) {
	tag := "adapt-traffic"
	recv := adaptCtx(t, tag)
	send := adaptCtx(t, tag)

	last := make(map[string]uint64)
	for i := 0; i < 10; i++ {
		recv.adaptOnce(64, last)
	}
	if got := recv.SkipPoll("wan"); got != 64 {
		t.Fatalf("precondition: wan skip = %d", got)
	}

	// Traffic arrives over wan: the next adaptation round must restore
	// eager polling.
	var hits atomic.Int64
	ep := recv.NewEndpoint(WithHandler(func(*Endpoint, *buffer.Buffer) { hits.Add(1) }))
	sp := transferStartpoint(t, ep.NewStartpoint(), send, false)
	if err := sp.SetMethod("wan"); err != nil {
		t.Fatal(err)
	}
	if err := sp.RSR("", nil); err != nil {
		t.Fatal(err)
	}
	// Deliver it (within the skip window).
	for i := 0; i < 70 && hits.Load() == 0; i++ {
		recv.Poll()
	}
	if hits.Load() != 1 {
		t.Fatal("wan RSR not delivered")
	}
	recv.adaptOnce(64, last)
	if got := recv.SkipPoll("wan"); got != 1 {
		t.Errorf("wan skip after traffic = %d, want 1", got)
	}
	// Idle again: backs off again.
	recv.adaptOnce(64, last)
	if got := recv.SkipPoll("wan"); got <= 1 {
		t.Errorf("wan skip after renewed idleness = %d, want > 1", got)
	}
}

// TestAdaptivePinning is the regression test for the tuner clobbering manual
// skip_poll choices: a value set via SetSkipPoll is pinned and survives both
// the adaptive tuner and AutoSkipPoll until UnpinSkipPoll releases it.
func TestAdaptivePinning(t *testing.T) {
	c := adaptCtx(t, "adapt-pin")
	if err := c.SetSkipPoll("wan", 7); err != nil {
		t.Fatal(err)
	}
	last := make(map[string]uint64)
	for i := 0; i < 10; i++ {
		c.adaptOnce(64, last)
	}
	if got := c.SkipPoll("wan"); got != 7 {
		t.Errorf("pinned wan skip after tuner rounds = %d, want 7", got)
	}
	c.AutoSkipPoll()
	if got := c.SkipPoll("wan"); got != 7 {
		t.Errorf("pinned wan skip after AutoSkipPoll = %d, want 7", got)
	}
	// The unpinned mpl module is still the tuner's to manage.
	var pinned, unpinned bool
	for _, mi := range c.Methods() {
		switch mi.Name {
		case "wan":
			pinned = mi.Pinned
		case "mpl":
			unpinned = mi.Pinned
		}
	}
	if !pinned || unpinned {
		t.Errorf("Pinned flags: wan=%v mpl=%v, want true/false", pinned, unpinned)
	}

	// Unpin: the next idle rounds back wan off geometrically from 7.
	if err := c.UnpinSkipPoll("wan"); err != nil {
		t.Fatal(err)
	}
	c.adaptOnce(64, last)
	if got := c.SkipPoll("wan"); got != 14 {
		t.Errorf("unpinned wan skip after one idle round = %d, want 14", got)
	}
	if err := c.UnpinSkipPoll("nope"); err == nil {
		t.Error("UnpinSkipPoll on unknown method: want error")
	}
}

func TestAdaptiveBackgroundTuner(t *testing.T) {
	c := adaptCtx(t, "adapt-bg")
	stop := c.startAdaptive(time.Millisecond, 32)
	deadline := time.Now().Add(5 * time.Second)
	for c.SkipPoll("wan") != 32 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stop()
	if got := c.SkipPoll("wan"); got != 32 {
		t.Errorf("background tuner: wan skip = %d, want 32", got)
	}
}
