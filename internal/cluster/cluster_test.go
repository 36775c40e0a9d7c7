package cluster

import (
	"sync/atomic"
	"testing"
	"time"

	"nexus/internal/buffer"
	"nexus/internal/core"
	"nexus/internal/resource"
	"nexus/internal/transport"
)

func fastMPL() core.MethodConfig {
	return core.MethodConfig{Name: "mpl", Params: transport.Params{"latency": "0", "poll_cost": "0", "bandwidth": "0"}}
}

func fastWAN() core.MethodConfig {
	return core.MethodConfig{Name: "wan", Params: transport.Params{"latency": "0", "poll_cost": "0", "bandwidth": "0"}}
}

func inprocCfg() core.MethodConfig { return core.MethodConfig{Name: "inproc"} }

func newMachine(t *testing.T, cfg Config) *Machine {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

func TestUniformMachineAllPairs(t *testing.T) {
	m := newMachine(t, Uniform(4, "p0", inprocCfg()))
	if m.Size() != 4 {
		t.Fatalf("Size = %d", m.Size())
	}
	var hits atomic.Int64
	// Every rank gets an endpoint; every other rank sends to it.
	eps := make([]*core.Endpoint, m.Size())
	for i := range eps {
		eps[i] = m.Context(i).NewEndpoint(core.WithHandler(func(*core.Endpoint, *buffer.Buffer) { hits.Add(1) }))
	}
	for i := 0; i < m.Size(); i++ {
		for j := 0; j < m.Size(); j++ {
			if i == j {
				continue
			}
			sp, err := core.TransferStartpoint(eps[j].NewStartpoint(), m.Context(i))
			if err != nil {
				t.Fatal(err)
			}
			if err := sp.RSR("", nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := int64(m.Size() * (m.Size() - 1))
	deadline := time.Now().Add(5 * time.Second)
	for hits.Load() < want && time.Now().Before(deadline) {
		for i := 0; i < m.Size(); i++ {
			m.Context(i).Poll()
		}
	}
	if hits.Load() != want {
		t.Errorf("delivered %d, want %d", hits.Load(), want)
	}
}

func TestTwoPartitionScoping(t *testing.T) {
	m := newMachine(t, TwoPartition(2, "atmo", 2, "ocean", fastMPL(), fastWAN()))
	if got := m.Ranks("atmo"); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("Ranks(atmo) = %v", got)
	}
	if got := m.Ranks("ocean"); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("Ranks(ocean) = %v", got)
	}

	ep := m.Context(1).NewEndpoint(core.WithHandler(func(*core.Endpoint, *buffer.Buffer) {}))
	// Same partition: mpl selected (first in table).
	spIntra, err := core.TransferStartpoint(ep.NewStartpoint(), m.Context(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spIntra.SelectMethod(); err != nil {
		t.Fatal(err)
	}
	if got := spIntra.Method(); got != "mpl" {
		t.Errorf("intra-partition method = %q", got)
	}
	// Cross partition: wan is the only applicable method.
	spInter, err := core.TransferStartpoint(ep.NewStartpoint(), m.Context(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spInter.SelectMethod(); err != nil {
		t.Fatal(err)
	}
	if got := spInter.Method(); got != "wan" {
		t.Errorf("inter-partition method = %q", got)
	}
}

func TestMachineIsolationByTag(t *testing.T) {
	m1 := newMachine(t, Uniform(1, "p", inprocCfg()))
	m2 := newMachine(t, Uniform(1, "p", inprocCfg()))
	ep := m1.Context(0).NewEndpoint(core.WithHandler(func(*core.Endpoint, *buffer.Buffer) {}))
	sp, err := core.TransferStartpoint(ep.NewStartpoint(), m2.Context(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.SelectMethod(); err == nil {
		t.Error("cross-machine selection succeeded; fabrics not isolated")
	}
}

func TestLightweightStartpointsWorkAfterWiring(t *testing.T) {
	m := newMachine(t, Uniform(2, "p0", inprocCfg()))
	var hits atomic.Int64
	ep := m.Context(0).NewEndpoint(core.WithHandler(func(*core.Endpoint, *buffer.Buffer) { hits.Add(1) }))
	b := buffer.New(64)
	ep.NewStartpoint().EncodeLite(b)
	dec, err := buffer.FromBytes(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	sp, err := m.Context(1).DecodeStartpoint(dec)
	if err != nil {
		t.Fatal(err)
	}
	// Peer tables were exchanged at boot, so the lite startpoint resolves.
	if err := sp.RSR("", nil); err != nil {
		t.Fatal(err)
	}
	if !m.Context(0).PollUntil(func() bool { return hits.Load() == 1 }, 5*time.Second) {
		t.Fatal("lite RSR not delivered")
	}
}

// TestForwardingConfiguration exercises the same relay topology over both
// route origins: "static" wires the forwarder by hand (ConfigureForwarding,
// the pre-mesh API), "mesh" boots a dynamic machine and lets gossip discover
// the route. Either way an external sender must reach an mpl-only member
// through the partition's wan forwarder, and the member must never poll wan.
func TestForwardingConfiguration(t *testing.T) {
	t.Run("static", func(t *testing.T) { testForwardingConfiguration(t, false) })
	t.Run("mesh", func(t *testing.T) { testForwardingConfiguration(t, true) })
}

func testForwardingConfiguration(t *testing.T, mesh bool) {
	// Partition "sp2": ranks 0 (forwarder), 1, 2. Outside: rank 3.
	cfg := Config{Nodes: []NodeSpec{
		{Partition: "sp2", Methods: []core.MethodConfig{fastMPL(), fastWAN()}, Forwarder: mesh},
		{Partition: "sp2", Methods: []core.MethodConfig{fastMPL()}},
		{Partition: "sp2", Methods: []core.MethodConfig{fastMPL()}},
		{Partition: "outside", Methods: []core.MethodConfig{fastWAN()}},
	}}
	if mesh {
		cfg.Dynamic = &NodeConfig{Mesh: true, fanout: 8}
	}
	m := newMachine(t, cfg)
	if mesh {
		if rounds, ok := m.Settle(60); !ok {
			t.Fatalf("dynamic machine did not converge in %d rounds", rounds)
		}
		// Gossip + Dijkstra discovered the relay: the outside sender routes
		// to the member through the forwarder, no ConfigureForwarding call.
		if via := m.Node(3).RouteVia(m.Context(1).ID()); via != m.Context(0).ID() {
			t.Fatalf("mesh route via %d, want forwarder %d", via, m.Context(0).ID())
		}
	} else {
		if err := m.ConfigureForwarding(0, "wan"); err != nil {
			t.Fatal(err)
		}
	}

	var got atomic.Value
	ep := m.Context(1).NewEndpoint(core.WithHandler(func(ep *core.Endpoint, b *buffer.Buffer) {
		got.Store(b.String())
	}))
	var sp *core.Startpoint
	var err error
	if mesh {
		// Mesh routes live in peer tables, so the sender needs a lightweight
		// startpoint (a full transfer carries the member's own table, which
		// holds no method an outside context can use).
		enc := buffer.New(64)
		ep.NewStartpoint().EncodeLite(enc)
		var dec *buffer.Buffer
		if dec, err = buffer.FromBytes(enc.Encode()); err == nil {
			sp, err = m.Context(3).DecodeStartpoint(dec)
		}
	} else {
		sp, err = core.TransferStartpoint(ep.NewStartpoint(), m.Context(3))
	}
	if err != nil {
		t.Fatal(err)
	}
	b := buffer.New(32)
	b.PutString("inward")
	if err := sp.RSR("", b); err != nil {
		t.Fatal(err)
	}
	if mth := sp.Method(); mth != "wan" {
		t.Errorf("external method = %q", mth)
	}
	deadline := time.Now().Add(5 * time.Second)
	for got.Load() == nil && time.Now().Before(deadline) {
		m.Context(0).Poll()
		m.Context(1).Poll()
	}
	if got.Load() != "inward" {
		t.Fatalf("member received %v", got.Load())
	}
	relayed := m.Context(0).Stats().Get("forward.relayed")
	if mesh {
		// Gossip frames to unreachable peers relay through the forwarder too,
		// so the exact count varies; the payload frame is in there.
		if relayed < 1 {
			t.Errorf("forward.relayed = %d, want >= 1", relayed)
		}
	} else if relayed != 1 {
		t.Errorf("forward.relayed = %d", relayed)
	}
	// Member 1 (no wan module) never polled wan.
	if m.Context(1).Stats().Get("poll.wan") != 0 {
		t.Errorf("member polled wan %d times", m.Context(1).Stats().Get("poll.wan"))
	}
}

func TestForwardingErrors(t *testing.T) {
	m := newMachine(t, Uniform(2, "p0", fastMPL()))
	if err := m.ConfigureForwarding(5, "wan"); err == nil {
		t.Error("bad rank accepted")
	}
	if err := m.ConfigureForwarding(0, "wan"); err == nil {
		t.Error("forwarder without the method accepted")
	}
}

func TestDatabaseDrivenMachine(t *testing.T) {
	db, err := resource.ParseString(`
* = inproc
partition:fast = mpl:latency=0:poll_cost=0:bandwidth=0,inproc
`)
	if err != nil {
		t.Fatal(err)
	}
	m := newMachine(t, Config{
		Database: db,
		Nodes: []NodeSpec{
			{Partition: "fast"},
			{Partition: "fast"},
			{Partition: "slow"},
		},
	})
	// fast nodes have mpl; slow does not.
	infosFast := m.Context(0).Methods()
	names := make(map[string]bool)
	for _, mi := range infosFast {
		names[mi.Name] = true
	}
	if !names["mpl"] || !names["inproc"] {
		t.Errorf("fast node methods = %v", names)
	}
	infosSlow := m.Context(2).Methods()
	for _, mi := range infosSlow {
		if mi.Name == "mpl" {
			t.Error("slow node has mpl")
		}
	}
}

func TestRunCollectsErrors(t *testing.T) {
	m := newMachine(t, Uniform(3, "p", inprocCfg()))
	var calls atomic.Int64
	err := m.Run(func(rank int, ctx *core.Context) error {
		calls.Add(1)
		return nil
	})
	if err != nil || calls.Load() != 3 {
		t.Errorf("Run: err=%v calls=%d", err, calls.Load())
	}
}

func TestMachinePollersDeliver(t *testing.T) {
	m := newMachine(t, Uniform(2, "p", inprocCfg()))
	stop := m.StartPollers(0)
	defer stop()
	var hits atomic.Int64
	ep := m.Context(0).NewEndpoint(core.WithHandler(func(*core.Endpoint, *buffer.Buffer) { hits.Add(1) }))
	sp, err := core.TransferStartpoint(ep.NewStartpoint(), m.Context(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.RSR("", nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for hits.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if hits.Load() != 1 {
		t.Fatal("poller did not deliver")
	}
}
