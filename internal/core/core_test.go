package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nexus/internal/buffer"
	_ "nexus/internal/simnet"
	"nexus/internal/transport"
	_ "nexus/internal/transport/inproc"
	_ "nexus/internal/transport/local"
	_ "nexus/internal/transport/tcp"
	"nexus/internal/wire"
)

// newCtx builds a context with the given methods on an isolated inproc
// exchange shared by all contexts built with the same tag.
func newCtx(t testing.TB, tag, partition string, methods ...MethodConfig) *Context {
	t.Helper()
	for i := range methods {
		if methods[i].Name == "inproc" || methods[i].Name == "mpl" || methods[i].Name == "wan" {
			if methods[i].Params == nil {
				methods[i].Params = transport.Params{}
			}
			if _, ok := methods[i].Params["exchange"]; !ok {
				methods[i].Params["exchange"] = tag
			}
			if _, ok := methods[i].Params["fabric"]; !ok {
				methods[i].Params["fabric"] = tag
			}
		}
	}
	c, err := NewContext(Options{Partition: partition, Methods: methods})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func inprocCfg() MethodConfig { return MethodConfig{Name: "inproc"} }

func TestLocalRSRRoundTrip(t *testing.T) {
	c := newCtx(t, "local-rt", "")
	var got atomic.Int64
	ep := c.NewEndpoint(WithHandler(func(ep *Endpoint, b *buffer.Buffer) {
		got.Store(b.Int64())
	}))
	sp := ep.NewStartpoint()
	b := buffer.New(16)
	b.PutInt64(42)
	if err := sp.RSR("", b); err != nil {
		t.Fatal(err)
	}
	// Local delivery is synchronous.
	if got.Load() != 42 {
		t.Fatalf("handler saw %d, want 42", got.Load())
	}
	if m := sp.Method(); m != "local" {
		t.Errorf("selected method %q, want local", m)
	}
}

func TestNamedHandlerPrecedence(t *testing.T) {
	c := newCtx(t, "named-h", "")
	var which atomic.Value
	c.RegisterHandler("named", func(ep *Endpoint, b *buffer.Buffer) { which.Store("named") })
	ep := c.NewEndpoint(WithHandler(func(ep *Endpoint, b *buffer.Buffer) { which.Store("default") }))
	sp := ep.NewStartpoint()

	if err := sp.RSR("named", nil); err != nil {
		t.Fatal(err)
	}
	if which.Load() != "named" {
		t.Errorf("named RSR ran %v", which.Load())
	}
	if err := sp.RSR("", nil); err != nil {
		t.Fatal(err)
	}
	if which.Load() != "default" {
		t.Errorf("unnamed RSR ran %v", which.Load())
	}
}

func TestEndpointDataGlobalPointer(t *testing.T) {
	c := newCtx(t, "ep-data", "")
	type cell struct{ v int }
	data := &cell{}
	ep := c.NewEndpoint(WithData(data), WithHandler(func(ep *Endpoint, b *buffer.Buffer) {
		ep.Data().(*cell).v = b.Int()
	}))
	sp := ep.NewStartpoint()
	b := buffer.New(8)
	b.PutInt(7)
	if err := sp.RSR("", b); err != nil {
		t.Fatal(err)
	}
	if data.v != 7 {
		t.Errorf("bound data = %d, want 7", data.v)
	}
}

// transferStartpoint encodes sp and decodes it in dst, as if it had been
// carried inside an RSR.
func transferStartpoint(t testing.TB, sp *Startpoint, dst *Context, lite bool) *Startpoint {
	t.Helper()
	b := buffer.New(256)
	if lite {
		sp.EncodeLite(b)
	} else {
		sp.Encode(b)
	}
	dec, err := buffer.FromBytes(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	got, err := dst.DecodeStartpoint(dec)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestCrossContextRSRViaInproc(t *testing.T) {
	tag := "cross-inproc"
	recv := newCtx(t, tag, "", inprocCfg())
	send := newCtx(t, tag, "", inprocCfg())

	var got atomic.Value
	ep := recv.NewEndpoint(WithHandler(func(ep *Endpoint, b *buffer.Buffer) {
		got.Store(b.String())
	}))
	sp := transferStartpoint(t, ep.NewStartpoint(), send, false)

	b := buffer.New(32)
	b.PutString("over inproc")
	if err := sp.RSR("", b); err != nil {
		t.Fatal(err)
	}
	if m := sp.Method(); m != "inproc" {
		t.Errorf("selected %q, want inproc", m)
	}
	ok := recv.PollUntil(func() bool { return got.Load() != nil }, 5*time.Second)
	if !ok {
		t.Fatal("RSR never delivered")
	}
	if got.Load() != "over inproc" {
		t.Errorf("got %v", got.Load())
	}
	if recv.Stats().Get("rsr.recv") != 1 {
		t.Errorf("rsr.recv = %d", recv.Stats().Get("rsr.recv"))
	}
	if send.Stats().Get("rsr.sent") != 1 {
		t.Errorf("rsr.sent = %d", send.Stats().Get("rsr.sent"))
	}
}

// TestFigure3SelectionScenario reproduces the paper's Figure 3: node 0
// supports only the universal method; nodes 1 and 2 are in one partition and
// additionally share a fast partition-scoped method. A startpoint for node
// 2's endpoint selects the universal method at node 0; after migrating to
// node 1, re-selection picks the fast method.
func TestFigure3SelectionScenario(t *testing.T) {
	tag := "fig3"
	mpl := func() MethodConfig {
		return MethodConfig{Name: "mpl", Params: transport.Params{"latency": "0", "poll_cost": "0", "bandwidth": "0"}}
	}
	node2 := newCtx(t, tag, "sp2", mpl(), inprocCfg())
	node1 := newCtx(t, tag, "sp2", mpl(), inprocCfg())
	node0 := newCtx(t, tag, "workstation", inprocCfg())

	var hits atomic.Int64
	ep := node2.NewEndpoint(WithHandler(func(ep *Endpoint, b *buffer.Buffer) { hits.Add(1) }))
	orig := ep.NewStartpoint()

	// At node 0 only the universal (inproc here, Ethernet in the paper)
	// method is applicable: mpl requires same partition.
	sp0 := transferStartpoint(t, orig, node0, false)
	if err := sp0.RSR("", nil); err != nil {
		t.Fatal(err)
	}
	if m := sp0.Method(); m != "inproc" {
		t.Errorf("node0 selected %q, want inproc", m)
	}

	// Migrate the startpoint onward to node 1: mpl becomes applicable and,
	// being first in the table, wins.
	sp1 := transferStartpoint(t, sp0, node1, false)
	if err := sp1.RSR("", nil); err != nil {
		t.Fatal(err)
	}
	if m := sp1.Method(); m != "mpl" {
		t.Errorf("node1 selected %q, want mpl", m)
	}
	if !node2.PollUntil(func() bool { return hits.Load() == 2 }, 5*time.Second) {
		t.Fatalf("delivered %d RSRs, want 2", hits.Load())
	}
}

func TestManualSetMethodOverridesAuto(t *testing.T) {
	tag := "manual"
	recv := newCtx(t, tag, "pp", MethodConfig{Name: "mpl", Params: transport.Params{"latency": "0", "poll_cost": "0", "bandwidth": "0"}}, inprocCfg())
	send := newCtx(t, tag, "pp", MethodConfig{Name: "mpl", Params: transport.Params{"latency": "0", "poll_cost": "0", "bandwidth": "0"}}, inprocCfg())

	var hits atomic.Int64
	ep := recv.NewEndpoint(WithHandler(func(ep *Endpoint, b *buffer.Buffer) { hits.Add(1) }))
	sp := transferStartpoint(t, ep.NewStartpoint(), send, false)

	if err := sp.SetMethod("inproc"); err != nil {
		t.Fatal(err)
	}
	if err := sp.RSR("", nil); err != nil {
		t.Fatal(err)
	}
	if m := sp.Method(); m != "inproc" {
		t.Errorf("method = %q after manual selection", m)
	}
	if !recv.PollUntil(func() bool { return hits.Load() == 1 }, 5*time.Second) {
		t.Fatal("not delivered")
	}
	// Dynamic change back to automatic choice (mpl) mid-stream.
	if err := sp.SetMethod("mpl"); err != nil {
		t.Fatal(err)
	}
	if err := sp.RSR("", nil); err != nil {
		t.Fatal(err)
	}
	if !recv.PollUntil(func() bool { return hits.Load() == 2 }, 5*time.Second) {
		t.Fatal("not delivered after method change")
	}
	if err := sp.SetMethod("atm"); err == nil {
		t.Error("SetMethod of absent method succeeded")
	}
}

func TestTableReorderingGuidesSelection(t *testing.T) {
	tag := "reorder"
	recv := newCtx(t, tag, "pp", MethodConfig{Name: "mpl", Params: transport.Params{"latency": "0", "poll_cost": "0", "bandwidth": "0"}}, inprocCfg())
	send := newCtx(t, tag, "pp", MethodConfig{Name: "mpl", Params: transport.Params{"latency": "0", "poll_cost": "0", "bandwidth": "0"}}, inprocCfg())

	ep := recv.NewEndpoint(WithHandler(func(*Endpoint, *buffer.Buffer) {}))
	sp := transferStartpoint(t, ep.NewStartpoint(), send, false)

	// User promotes inproc above mpl before first use: automatic selection
	// must honor the new order.
	sp.Table().Promote("inproc")
	if _, err := sp.SelectMethod(); err != nil {
		t.Fatal(err)
	}
	if m := sp.Method(); m != "inproc" {
		t.Errorf("after Promote, selected %q", m)
	}

	// Deleting a descriptor removes the method from consideration.
	sp2 := transferStartpoint(t, ep.NewStartpoint(), send, false)
	sp2.Table().Remove("mpl")
	if _, err := sp2.SelectMethod(); err != nil {
		t.Fatal(err)
	}
	if m := sp2.Method(); m != "inproc" {
		t.Errorf("after Remove(mpl), selected %q", m)
	}
}

func TestLightweightStartpoint(t *testing.T) {
	tag := "lite"
	recv := newCtx(t, tag, "", inprocCfg())
	send := newCtx(t, tag, "", inprocCfg())

	var hits atomic.Int64
	ep := recv.NewEndpoint(WithHandler(func(*Endpoint, *buffer.Buffer) { hits.Add(1) }))

	// Lite encoding is much smaller than the full table form.
	full, lite := buffer.New(256), buffer.New(256)
	sp := ep.NewStartpoint()
	sp.Encode(full)
	sp.EncodeLite(lite)
	if lite.Len() >= full.Len() {
		t.Errorf("lite %dB not smaller than full %dB", lite.Len(), full.Len())
	}

	spLite := transferStartpoint(t, sp, send, true)
	// Without a registered peer table, selection must fail with ErrNoTable.
	if _, err := spLite.SelectMethod(); !errors.Is(err, ErrNoTable) {
		t.Fatalf("SelectMethod without peer table: %v", err)
	}
	// After registering the default table, the lite startpoint works.
	send.RegisterPeerTable(recv.AdvertisedTable())
	if err := spLite.RSR("", nil); err != nil {
		t.Fatal(err)
	}
	if !recv.PollUntil(func() bool { return hits.Load() == 1 }, 5*time.Second) {
		t.Fatal("lite RSR not delivered")
	}
}

func TestMulticastStartpoint(t *testing.T) {
	tag := "mcast"
	r1 := newCtx(t, tag, "", inprocCfg())
	r2 := newCtx(t, tag, "", inprocCfg())
	send := newCtx(t, tag, "", inprocCfg())

	var h1, h2 atomic.Int64
	ep1 := r1.NewEndpoint(WithHandler(func(*Endpoint, *buffer.Buffer) { h1.Add(1) }))
	ep2 := r2.NewEndpoint(WithHandler(func(*Endpoint, *buffer.Buffer) { h2.Add(1) }))

	sp := transferStartpoint(t, ep1.NewStartpoint(), send, false)
	sp.Merge(transferStartpoint(t, ep2.NewStartpoint(), send, false))
	if n := len(sp.Targets()); n != 2 {
		t.Fatalf("targets = %d", n)
	}
	// Merging the same link twice is a no-op.
	sp.Merge(transferStartpoint(t, ep2.NewStartpoint(), send, false))
	if n := len(sp.Targets()); n != 2 {
		t.Fatalf("targets after duplicate merge = %d", n)
	}

	if err := sp.RSR("", nil); err != nil {
		t.Fatal(err)
	}
	ok1 := r1.PollUntil(func() bool { return h1.Load() == 1 }, 5*time.Second)
	ok2 := r2.PollUntil(func() bool { return h2.Load() == 1 }, 5*time.Second)
	if !ok1 || !ok2 {
		t.Fatalf("multicast delivery: ep1=%d ep2=%d", h1.Load(), h2.Load())
	}
}

func TestMergedTrafficToOneEndpoint(t *testing.T) {
	tag := "merge-in"
	recv := newCtx(t, tag, "", inprocCfg())
	s1 := newCtx(t, tag, "", inprocCfg())
	s2 := newCtx(t, tag, "", inprocCfg())

	var hits atomic.Int64
	ep := recv.NewEndpoint(WithHandler(func(*Endpoint, *buffer.Buffer) { hits.Add(1) }))
	spA := transferStartpoint(t, ep.NewStartpoint(), s1, false)
	spB := transferStartpoint(t, ep.NewStartpoint(), s2, false)
	for i := 0; i < 3; i++ {
		if err := spA.RSR("", nil); err != nil {
			t.Fatal(err)
		}
		if err := spB.RSR("", nil); err != nil {
			t.Fatal(err)
		}
	}
	if !recv.PollUntil(func() bool { return hits.Load() == 6 }, 5*time.Second) {
		t.Fatalf("merged deliveries = %d, want 6", hits.Load())
	}
}

func TestStartpointCarriedInsideRSR(t *testing.T) {
	// The full paper pattern: context A creates a link and sends the
	// startpoint to B inside an RSR; B replies over the received startpoint.
	tag := "sp-in-rsr"
	a := newCtx(t, tag, "", inprocCfg())
	b := newCtx(t, tag, "", inprocCfg())

	var reply atomic.Value
	replyEP := a.NewEndpoint(WithHandler(func(ep *Endpoint, buf *buffer.Buffer) {
		reply.Store(buf.String())
	}))

	b.RegisterHandler("request", func(ep *Endpoint, buf *buffer.Buffer) {
		sp, err := ep.Context().DecodeStartpoint(buf)
		if err != nil {
			t.Error(err)
			return
		}
		out := buffer.New(32)
		out.PutString("pong")
		if err := sp.RSR("", out); err != nil {
			t.Error(err)
		}
	})
	reqEP := b.NewEndpoint()
	reqSP := transferStartpoint(t, reqEP.NewStartpoint(), a, false)

	req := buffer.New(128)
	replyEP.NewStartpoint().Encode(req)
	if err := reqSP.RSR("request", req); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for reply.Load() == nil && time.Now().Before(deadline) {
		b.Poll()
		a.Poll()
	}
	if reply.Load() != "pong" {
		t.Fatalf("reply = %v", reply.Load())
	}
}

func TestThreadedHandlers(t *testing.T) {
	tag := "threaded"
	// Dispatch lanes are keyed by destination endpoint: RSRs to one endpoint
	// stay FIFO, so the slow and fast handlers must live on DIFFERENT
	// endpoints to run concurrently. Endpoint ids count up from 1, so with 4
	// lanes ids 1 and 2 land on distinct lanes.
	recvOpts := Options{
		Methods:  []MethodConfig{{Name: "inproc", Params: transport.Params{"exchange": tag}}},
		Threaded: true,
		dispatch: dispatchConfig{lanes: 4},
	}
	recv, err := NewContext(recvOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	send := newCtx(t, tag, "", inprocCfg())

	var wg sync.WaitGroup
	wg.Add(2)
	block := make(chan struct{})
	var order []string
	var mu sync.Mutex
	recv.RegisterHandler("slow", func(*Endpoint, *buffer.Buffer) {
		defer wg.Done()
		<-block
		mu.Lock()
		order = append(order, "slow")
		mu.Unlock()
	})
	recv.RegisterHandler("fast", func(*Endpoint, *buffer.Buffer) {
		defer wg.Done()
		mu.Lock()
		order = append(order, "fast")
		mu.Unlock()
		close(block)
	})
	epSlow := recv.NewEndpoint()
	epFast := recv.NewEndpoint()
	spSlow := transferStartpoint(t, epSlow.NewStartpoint(), send, false)
	spFast := transferStartpoint(t, epFast.NewStartpoint(), send, false)
	if err := spSlow.RSR("slow", nil); err != nil {
		t.Fatal(err)
	}
	if err := spFast.RSR("fast", nil); err != nil {
		t.Fatal(err)
	}
	// With threaded handlers, the blocked "slow" handler cannot wedge the
	// poller: "fast" runs concurrently and unblocks it.
	donePolling := make(chan struct{})
	go func() {
		defer close(donePolling)
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			recv.Poll()
			mu.Lock()
			n := len(order)
			mu.Unlock()
			if n == 2 {
				return
			}
		}
	}()
	wg.Wait()
	<-donePolling
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "fast" {
		t.Errorf("handler order = %v, want fast first", order)
	}
}

func TestUnknownHandlerAndEndpointCounted(t *testing.T) {
	tag := "unknown"
	var errs []error
	var mu sync.Mutex
	recv, err := NewContext(Options{
		Methods:  []MethodConfig{{Name: "inproc", Params: transport.Params{"exchange": tag}}},
		errorLog: func(e error) { mu.Lock(); errs = append(errs, e); mu.Unlock() },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	send := newCtx(t, tag, "", inprocCfg())

	ep := recv.NewEndpoint() // no handler at all
	sp := transferStartpoint(t, ep.NewStartpoint(), send, false)
	if err := sp.RSR("nonexistent", nil); err != nil {
		t.Fatal(err)
	}
	recv.PollUntil(func() bool { mu.Lock(); defer mu.Unlock(); return len(errs) > 0 }, 5*time.Second)
	mu.Lock()
	if len(errs) != 1 || !errors.Is(errs[0], ErrUnknownHandler) {
		t.Fatalf("errors = %v", errs)
	}
	mu.Unlock()
	if got := recv.cDropUnkH.Load(); got != 1 {
		t.Errorf("rsr.dropped.unknown_handler = %d, want 1", got)
	}
	if got := recv.cDropUnkEP.Load(); got != 0 {
		t.Errorf("rsr.dropped.unknown_endpoint = %d, want 0", got)
	}

	// RSR to a closed endpoint reports ErrUnknownEndpoint.
	ep2 := recv.NewEndpoint(WithHandler(func(*Endpoint, *buffer.Buffer) {}))
	sp2 := transferStartpoint(t, ep2.NewStartpoint(), send, false)
	ep2.Close()
	if err := sp2.RSR("", nil); err != nil {
		t.Fatal(err)
	}
	recv.PollUntil(func() bool { mu.Lock(); defer mu.Unlock(); return len(errs) > 1 }, 5*time.Second)
	mu.Lock()
	defer mu.Unlock()
	if len(errs) != 2 || !errors.Is(errs[1], ErrUnknownEndpoint) {
		t.Fatalf("errors = %v", errs)
	}
	if got := recv.cDropUnkEP.Load(); got != 1 {
		t.Errorf("rsr.dropped.unknown_endpoint = %d, want 1", got)
	}
}

// TestRPCFrameWithoutLayer sends an RSR carrying wire.FlagRPC to a context
// with nothing attached as LayerRPC: it is counted as
// rsr.dropped.no_rpc_layer, reported once to errorLog, and runs no handler.
// Once a value with an Intake method takes the slot, the same frame reaches
// it, and a second Attach gets the first value back.
func TestRPCFrameWithoutLayer(t *testing.T) {
	tag := "no-rpc-layer"
	var errs []error
	var mu sync.Mutex
	recv, err := NewContext(Options{
		Methods:  []MethodConfig{{Name: "inproc", Params: transport.Params{"exchange": tag}}},
		errorLog: func(e error) { mu.Lock(); errs = append(errs, e); mu.Unlock() },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	send := newCtx(t, tag, "", inprocCfg())

	var ran atomic.Int64
	recv.RegisterHandler("echo", func(*Endpoint, *buffer.Buffer) { ran.Add(1) })
	ep := recv.NewEndpoint(WithHandler(func(*Endpoint, *buffer.Buffer) { ran.Add(1) }))
	sp := transferStartpoint(t, ep.NewStartpoint(), send, false)
	req := RPCSend{Ext: wire.RPCExt{Call: 7, Kind: wire.RPCRequest}}
	if err := sp.RSRWithRPC("echo", nil, req); err != nil {
		t.Fatal(err)
	}
	recv.PollUntil(func() bool { mu.Lock(); defer mu.Unlock(); return len(errs) > 0 }, 5*time.Second)
	recv.PollUntil(func() bool { return false }, 20*time.Millisecond)
	mu.Lock()
	if len(errs) != 1 {
		t.Errorf("errors = %v, want one", errs)
	}
	mu.Unlock()
	if got := recv.Stats().Get("rsr.dropped.no_rpc_layer"); got != 1 {
		t.Errorf("rsr.dropped.no_rpc_layer = %d, want 1", got)
	}
	if ran.Load() != 0 {
		t.Errorf("endpoint handlers ran %d times, want 0", ran.Load())
	}

	got := make(chan wire.RPCExt, 1)
	first := intakeFunc(func(f wire.Frame) { got <- f.RPC })
	if v := recv.Attach(LayerRPC, first); v == nil {
		t.Fatal("Attach returned nil")
	}
	if v, ok := recv.Attach(LayerRPC, intakeFunc(nil)).(intakeFunc); !ok || v == nil {
		t.Fatalf("second Attach returned %v, want the first value", v)
	}
	if err := sp.RSRWithRPC("echo", nil, req); err != nil {
		t.Fatal(err)
	}
	recv.PollUntil(func() bool { return len(got) > 0 }, 5*time.Second)
	if len(got) != 1 || (<-got).Call != 7 {
		t.Fatal("attached intake did not receive the frame")
	}
	if n := recv.Stats().Get("rsr.dropped.no_rpc_layer"); n != 1 || ran.Load() != 0 {
		t.Errorf("after attach: no_rpc_layer = %d, handlers ran %d; want 1, 0", n, ran.Load())
	}
}

// intakeFunc adapts a function to the LayerRPC slot's Intake method.
type intakeFunc func(f wire.Frame)

func (fn intakeFunc) Intake(f wire.Frame) { fn(f) }

func TestSharedCommunicationObjects(t *testing.T) {
	tag := "shared-conn"
	recv := newCtx(t, tag, "", inprocCfg())
	send := newCtx(t, tag, "", inprocCfg())

	ep1 := recv.NewEndpoint(WithHandler(func(*Endpoint, *buffer.Buffer) {}))
	ep2 := recv.NewEndpoint(WithHandler(func(*Endpoint, *buffer.Buffer) {}))
	spA := transferStartpoint(t, ep1.NewStartpoint(), send, false)
	spB := transferStartpoint(t, ep2.NewStartpoint(), send, false)
	if _, err := spA.SelectMethod(); err != nil {
		t.Fatal(err)
	}
	if _, err := spB.SelectMethod(); err != nil {
		t.Fatal(err)
	}
	// Two startpoints to the same context with the same method share one
	// communication object.
	if n := send.openConns(); n != 1 {
		t.Errorf("open conns = %d, want 1 (shared)", n)
	}
	spA.Close()
	if n := send.openConns(); n != 1 {
		t.Errorf("open conns after first Close = %d, want 1", n)
	}
	spB.Close()
	if n := send.openConns(); n != 0 {
		t.Errorf("open conns after both Close = %d, want 0", n)
	}
}

// flakyModule fails its first N sends, then works; used for failover tests.
type flakyModule struct {
	inner transport.Module
	fails *atomic.Int64
}

type flakyConn struct {
	inner transport.Conn
	fails *atomic.Int64
}

func (m *flakyModule) Name() string { return "flaky" }
func (m *flakyModule) Init(env transport.Env) (*transport.Descriptor, error) {
	d, err := m.inner.Init(env)
	if d != nil {
		d.Method = "flaky"
	}
	return d, err
}
func (m *flakyModule) Applicable(remote transport.Descriptor) bool {
	if remote.Method != "flaky" {
		return false
	}
	r := remote.Clone()
	r.Method = "inproc"
	return m.inner.Applicable(r)
}
func (m *flakyModule) Dial(remote transport.Descriptor) (transport.Conn, error) {
	r := remote.Clone()
	r.Method = "inproc"
	c, err := m.inner.Dial(r)
	if err != nil {
		return nil, err
	}
	return &flakyConn{inner: c, fails: m.fails}, nil
}
func (m *flakyModule) Poll() (int, error) { return m.inner.Poll() }
func (m *flakyModule) Close() error       { return m.inner.Close() }

func (c *flakyConn) Send(frame []byte) error {
	if c.fails.Add(-1) >= 0 {
		return fmt.Errorf("flaky: injected send failure")
	}
	return c.inner.Send(frame)
}
func (c *flakyConn) Method() string { return "flaky" }
func (c *flakyConn) Close() error   { return c.inner.Close() }

func TestFailoverToNextMethod(t *testing.T) {
	tag := "failover"
	fails := &atomic.Int64{}
	fails.Store(1 << 30) // flaky method always fails

	reg := transport.NewRegistry()
	for _, name := range []string{"local", "inproc"} {
		f := name
		base, err := transport.Default.New(f, transport.Params{"exchange": tag})
		if err != nil {
			t.Fatal(err)
		}
		_ = base
		reg.Register(f, transport.Default.Params(f), func(v transport.Values) (transport.Module, error) {
			return transport.Default.New(f, v.Params)
		})
	}
	reg.Register("flaky", nil, func(transport.Values) (transport.Module, error) {
		inner, err := transport.Default.New("inproc", transport.Params{"exchange": tag + "-flaky"})
		if err != nil {
			return nil, err
		}
		return &flakyModule{inner: inner, fails: fails}, nil
	})

	mk := func() *Context {
		c, err := NewContext(Options{
			registry: reg,
			Methods: []MethodConfig{
				{Name: "flaky"},
				{Name: "inproc", Params: transport.Params{"exchange": tag}},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	recv, send := mk(), mk()

	var hits atomic.Int64
	ep := recv.NewEndpoint(WithHandler(func(*Endpoint, *buffer.Buffer) { hits.Add(1) }))
	sp := transferStartpoint(t, ep.NewStartpoint(), send, false)

	// Without failover, the RSR reports the send error.
	if err := sp.RSR("", nil); err == nil {
		t.Fatal("RSR over always-failing method succeeded")
	}
	// With failover, the startpoint switches to inproc and delivers.
	sp.SetFailover(true)
	if err := sp.RSR("", nil); err != nil {
		t.Fatal(err)
	}
	if m := sp.Method(); m != "inproc" {
		t.Errorf("after failover, method = %q", m)
	}
	if !recv.PollUntil(func() bool { return hits.Load() == 1 }, 5*time.Second) {
		t.Fatal("failover RSR not delivered")
	}
	if send.Stats().Get("rsr.failover") != 1 {
		t.Errorf("rsr.failover = %d", send.Stats().Get("rsr.failover"))
	}
}

func TestDecodeStartpointTruncated(t *testing.T) {
	c := newCtx(t, "dec-trunc", "", inprocCfg())
	ep := c.NewEndpoint()
	b := buffer.New(256)
	ep.NewStartpoint().Encode(b)
	enc := b.Encode()
	for cut := 1; cut < len(enc); cut++ {
		d, err := buffer.FromBytes(enc[:cut])
		if err != nil {
			continue
		}
		if _, err := c.DecodeStartpoint(d); err == nil && cut < len(enc) {
			// A short prefix may decode when the truncation happens to
			// leave a valid smaller structure; with one target and one
			// table it cannot.
			t.Errorf("decode of %d/%d bytes succeeded", cut, len(enc))
		}
	}
}

func TestContextCloseRejectsUse(t *testing.T) {
	tag := "close-use"
	c := newCtx(t, tag, "", inprocCfg())
	ep := c.NewEndpoint(WithHandler(func(*Endpoint, *buffer.Buffer) {}))
	sp := ep.NewStartpoint()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if !c.Closed() {
		t.Error("Closed() = false")
	}
	if _, err := sp.SelectMethod(); !errors.Is(err, ErrClosed) {
		t.Errorf("SelectMethod on closed context: %v", err)
	}
	if n := c.Poll(); n != 0 {
		t.Errorf("Poll on closed context = %d", n)
	}
}

func TestConcurrentBidirectionalTraffic(t *testing.T) {
	tag := "concurrent"
	a := newCtx(t, tag, "", inprocCfg())
	b := newCtx(t, tag, "", inprocCfg())

	var aGot, bGot atomic.Int64
	epA := a.NewEndpoint(WithHandler(func(*Endpoint, *buffer.Buffer) { aGot.Add(1) }))
	epB := b.NewEndpoint(WithHandler(func(*Endpoint, *buffer.Buffer) { bGot.Add(1) }))
	spToB := transferStartpoint(t, epB.NewStartpoint(), a, false)
	spToA := transferStartpoint(t, epA.NewStartpoint(), b, false)

	stopA := a.StartPoller(0)
	stopB := b.StartPoller(0)
	defer stopA()
	defer stopB()

	const senders, per = 4, 250
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := spToB.RSR("", nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := spToA.RSR("", nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for (aGot.Load() < senders*per || bGot.Load() < senders*per) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if aGot.Load() != senders*per || bGot.Load() != senders*per {
		t.Errorf("delivered a=%d b=%d, want %d each", aGot.Load(), bGot.Load(), senders*per)
	}
}

// TestNegativeSkipPollRejected: a negative MethodConfig.SkipPoll is an error
// naming skip_poll, not a silent 1, while 0 still means every pass.
func TestNegativeSkipPollRejected(t *testing.T) {
	p := transport.Params{"exchange": "negative-skip-poll"}
	_, err := NewContext(Options{Methods: []MethodConfig{{Name: "inproc", SkipPoll: -3, Params: p}}})
	if !errors.Is(err, transport.ErrBadParam) || !strings.Contains(err.Error(), "skip_poll") {
		t.Fatalf("SkipPoll -3: NewContext = %v, want a bad parameter naming skip_poll", err)
	}
	c, err := NewContext(Options{Methods: []MethodConfig{{Name: "inproc", SkipPoll: 0, Params: p}}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.SkipPoll("inproc"); got != 1 {
		t.Errorf("SkipPoll 0: skip_poll = %d, want 1", got)
	}
}
