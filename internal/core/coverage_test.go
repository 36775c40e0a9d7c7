package core

import (
	"strings"
	"testing"
	"time"

	"nexus/internal/buffer"
	"nexus/internal/transport"
)

func TestNewContextUnknownMethod(t *testing.T) {
	if _, err := NewContext(Options{Methods: []MethodConfig{{Name: "warp-drive"}}}); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestNewContextDuplicateMethod(t *testing.T) {
	_, err := NewContext(Options{Methods: []MethodConfig{
		{Name: "tcp"}, {Name: "tcp"},
	}})
	if err == nil {
		t.Fatal("duplicate method accepted")
	}
}

func TestPollUntilTimesOut(t *testing.T) {
	c := newCtx(t, "cov-timeout", "", inprocCfg())
	start := time.Now()
	if c.PollUntil(func() bool { return false }, 30*time.Millisecond) {
		t.Fatal("PollUntil reported success")
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Error("PollUntil returned early")
	}
}

func TestContextAccessors(t *testing.T) {
	c, err := NewContext(Options{Partition: "px", Process: "procX"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Partition() != "px" || c.Process() != "procX" || c.ID() == 0 {
		t.Errorf("accessors: partition=%q process=%q id=%d", c.Partition(), c.Process(), c.ID())
	}
}

func TestStringers(t *testing.T) {
	c := newCtx(t, "cov-str", "", inprocCfg())
	ep := c.NewEndpoint()
	if s := ep.String(); !strings.Contains(s, "endpoint") {
		t.Errorf("Endpoint.String = %q", s)
	}
	sp := ep.NewStartpoint()
	if s := sp.String(); !strings.Contains(s, "startpoint") {
		t.Errorf("Startpoint.String = %q", s)
	}
	sp2 := ep.NewStartpoint()
	sp2.Merge(c.NewEndpoint().NewStartpoint())
	if s := sp2.String(); !strings.Contains(s, "2 links") {
		t.Errorf("multicast String = %q", s)
	}
}

func TestTableForAndTablePanics(t *testing.T) {
	c := newCtx(t, "cov-tablefor", "", inprocCfg())
	ep := c.NewEndpoint()
	sp := ep.NewStartpoint()
	if tab := sp.TableFor(c.ID()); tab == nil {
		t.Error("TableFor(own context) = nil")
	}
	if tab := sp.TableFor(99999); tab != nil {
		t.Error("TableFor(unknown) != nil")
	}
	sp.Merge(c.NewEndpoint().NewStartpoint())
	defer func() {
		if recover() == nil {
			t.Error("Table() on multicast startpoint did not panic")
		}
	}()
	_ = sp.Table()
}

func TestEndpointDataMutable(t *testing.T) {
	c := newCtx(t, "cov-data", "", inprocCfg())
	ep := c.NewEndpoint(WithData(1))
	if ep.Data() != 1 {
		t.Error("initial data lost")
	}
	ep.SetData("two")
	if ep.Data() != "two" {
		t.Error("SetData failed")
	}
	if ep.Context() != c {
		t.Error("Context() mismatch")
	}
}

func TestUnregisterHandler(t *testing.T) {
	c := newCtx(t, "cov-unreg", "", inprocCfg())
	ran := false
	c.RegisterHandler("h", func(*Endpoint, *buffer.Buffer) { ran = true })
	c.UnregisterHandler("h")
	ep := c.NewEndpoint()
	sp := ep.NewStartpoint()
	if err := sp.RSR("h", nil); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("unregistered handler ran")
	}
	if c.Stats().Get("errors.dropped") == 0 {
		t.Error("dropped delivery not counted")
	}
}

func TestRSRWithoutTargets(t *testing.T) {
	c := newCtx(t, "cov-notargets", "", inprocCfg())
	sp := &Startpoint{owner: c}
	if err := sp.RSR("", nil); err == nil {
		t.Error("RSR on unbound startpoint succeeded")
	}
	if _, err := sp.SelectMethod(); err == nil {
		t.Error("SelectMethod on unbound startpoint succeeded")
	}
	if sp.Method() != "" {
		t.Error("Method on unbound startpoint nonempty")
	}
}

func TestStartPollerDelivers(t *testing.T) {
	tag := "cov-poller"
	recv := newCtx(t, tag, "", inprocCfg())
	send := newCtx(t, tag, "", inprocCfg())
	hit := make(chan struct{}, 1)
	ep := recv.NewEndpoint(WithHandler(func(*Endpoint, *buffer.Buffer) {
		select {
		case hit <- struct{}{}:
		default:
		}
	}))
	stop := recv.StartPoller(time.Millisecond)
	defer stop()
	sp := transferStartpoint(t, ep.NewStartpoint(), send, false)
	if err := sp.RSR("", nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-hit:
	case <-time.After(5 * time.Second):
		t.Fatal("background poller never delivered")
	}
}

func TestPeerTableAccessors(t *testing.T) {
	tag := "cov-peer"
	a := newCtx(t, tag, "", inprocCfg())
	b := newCtx(t, tag, "", inprocCfg())
	if a.PeerTable(b.ID()) != nil {
		t.Error("unregistered peer table non-nil")
	}
	a.RegisterPeerTable(b.AdvertisedTable())
	tab := a.PeerTable(b.ID())
	if tab == nil || tab.Len() == 0 {
		t.Fatal("registered peer table missing")
	}
	// The returned table is a copy.
	tab.Remove("inproc")
	if got := a.PeerTable(b.ID()); got == nil || got.Len() != b.AdvertisedTable().Len() {
		t.Error("PeerTable returned aliased storage")
	}
	// Registering an empty table is a no-op, not a panic.
	a.RegisterPeerTable(transport.NewTable())
}
