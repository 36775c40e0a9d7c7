package cluster

import (
	"testing"
	"time"

	"nexus/internal/buffer"
	"nexus/internal/core"
	"nexus/internal/transport"
)

// meshTopology ranks for the two-relay-hop tests: a sender in partition pA
// that speaks only mpl, two interchangeable forwarders in pA bridging to wan,
// one forwarder in pB bridging wan back to pB's mpl, and a receiver in pB
// that speaks only mpl. Sender and receiver share no applicable method: every
// frame between them must cross two relays (three transport hops).
const (
	rankSender = 0
	rankRelayA = 1
	rankRelayB = 2
	rankBridge = 3
	rankDest   = 4
)

func meshConfig() Config {
	relay := []core.MethodConfig{fastMPL(), fastWAN()}
	return Config{
		Nodes: []NodeSpec{
			{Partition: "pA", Methods: []core.MethodConfig{fastMPL()}},
			{Partition: "pA", Methods: relay, Forwarder: true},
			{Partition: "pA", Methods: relay, Forwarder: true},
			{Partition: "pB", Methods: []core.MethodConfig{fastMPL(), fastWAN()}, Forwarder: true},
			{Partition: "pB", Methods: []core.MethodConfig{fastMPL()}},
		},
		Dynamic: &NodeConfig{Mesh: true, fanout: 8},
	}
}

// liteStartpoint builds a lightweight startpoint at `from` addressing a fresh
// endpoint on `to` whose handler records payloads into got. Lightweight
// startpoints resolve through peer tables, so they follow mesh routes.
func liteStartpoint(t *testing.T, to, from *core.Context, got *[]string) *core.Startpoint {
	t.Helper()
	ep := to.NewEndpoint(core.WithHandler(func(_ *core.Endpoint, b *buffer.Buffer) {
		*got = append(*got, b.String())
	}))
	b := buffer.New(64)
	ep.NewStartpoint().EncodeLite(b)
	dec, err := buffer.FromBytes(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	sp, err := from.DecodeStartpoint(dec)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// pollAll sweeps every non-nil context until pred holds (frames traverse one
// hop per sweep) or the deadline passes.
func pollAll(ctxs []*core.Context, pred func() bool, d time.Duration) bool {
	deadline := time.Now().Add(d)
	for !pred() {
		if time.Now().After(deadline) {
			return false
		}
		for _, c := range ctxs {
			if c != nil {
				c.Poll()
			}
		}
	}
	return true
}

func TestMeshTwoHopRoundTrip(t *testing.T) {
	m := dynMachine(t, meshConfig(), 60)
	ctxs := make([]*core.Context, m.Size())
	for i := range ctxs {
		ctxs[i] = m.Context(i)
	}
	sender, dest := m.Context(rankSender), m.Context(rankDest)

	// The computed route from sender to dest must go through one of the pA
	// relays — there is no direct method and no single-relay path.
	via := m.Node(rankSender).RouteVia(dest.ID())
	if via != m.Context(rankRelayA).ID() && via != m.Context(rankRelayB).ID() {
		t.Fatalf("sender routes to dest via %d, want relay %d or %d",
			via, m.Context(rankRelayA).ID(), m.Context(rankRelayB).ID())
	}
	if hop2 := m.Node(rankRelayA).RouteVia(dest.ID()); hop2 != m.Context(rankBridge).ID() {
		t.Fatalf("relay routes to dest via %d, want bridge %d", hop2, m.Context(rankBridge).ID())
	}

	// Request across the mesh…
	var inbox []string
	req := liteStartpoint(t, dest, sender, &inbox)
	b := buffer.New(32)
	b.PutString("ping")
	if err := req.RSR("", b); err != nil {
		t.Fatal(err)
	}
	if !pollAll(ctxs, func() bool { return len(inbox) == 1 }, 5*time.Second) {
		t.Fatalf("request not delivered; inbox=%v", inbox)
	}
	if inbox[0] != "ping" {
		t.Fatalf("payload = %q", inbox[0])
	}
	// …and a reply back the other way (routes are symmetric by construction).
	var replies []string
	rep := liteStartpoint(t, sender, dest, &replies)
	rb := buffer.New(32)
	rb.PutString("pong")
	if err := rep.RSR("", rb); err != nil {
		t.Fatal(err)
	}
	if !pollAll(ctxs, func() bool { return len(replies) == 1 }, 5*time.Second) {
		t.Fatalf("reply not delivered; replies=%v", replies)
	}

	// Both directions crossed two relays: the bridge relayed both frames, and
	// the pA side relayed both (possibly split between the two relays).
	if got := m.Context(rankBridge).Stats().Get("forward.relayed"); got < 2 {
		t.Errorf("bridge forward.relayed = %d, want >= 2", got)
	}
	pa := m.Context(rankRelayA).Stats().Get("forward.relayed") +
		m.Context(rankRelayB).Stats().Get("forward.relayed")
	if pa < 2 {
		t.Errorf("pA relays forward.relayed = %d, want >= 2", pa)
	}
	// The hop budget never ran out and no frame looped.
	for r := 0; r < m.Size(); r++ {
		if n := m.Context(r).Stats().Get("forward.ttl_exhausted"); n != 0 {
			t.Errorf("rank %d forward.ttl_exhausted = %d", r, n)
		}
		if n := m.Context(r).Stats().Get("forward.loop_dropped"); n != 0 {
			t.Errorf("rank %d forward.loop_dropped = %d", r, n)
		}
	}
}

func TestMeshRouteHealsAfterRelayDeath(t *testing.T) {
	m := dynMachine(t, meshConfig(), 60)
	sender, dest := m.Context(rankSender), m.Context(rankDest)

	victimRank := rankRelayA
	if m.Node(rankSender).RouteVia(dest.ID()) == m.Context(rankRelayB).ID() {
		victimRank = rankRelayB
	}
	survivorRank := rankRelayA + rankRelayB - victimRank
	victimID := m.Context(victimRank).ID()

	// A live lightweight link over the doomed route.
	var inbox []string
	sp := liteStartpoint(t, dest, sender, &inbox)
	ctxs := make([]*core.Context, 0, m.Size())
	for i := 0; i < m.Size(); i++ {
		if i != victimRank {
			ctxs = append(ctxs, m.Context(i))
		}
	}
	b := buffer.New(32)
	b.PutString("before")
	if err := sp.RSR("", b); err != nil {
		t.Fatal(err)
	}
	if !pollAll(append(ctxs, m.Context(victimRank)), func() bool { return len(inbox) == 1 }, 5*time.Second) {
		t.Fatal("pre-kill request not delivered")
	}

	// Kill the relay (crash — no tombstone of its own). The survivors' gossip
	// sends to it fail, the failure detector marks it suspect, and route
	// recomputation swings the path to the surviving relay.
	m.Context(victimRank).Close()
	nodes := make([]*Node, 0, m.Size()-1)
	for i := 0; i < m.Size(); i++ {
		if i != victimRank {
			nodes = append(nodes, m.Node(i))
		}
	}
	if rounds, ok := Settle(nodes, ctxs, 80); !ok {
		t.Fatalf("survivors did not reconverge after relay death (%d rounds)", rounds)
	}
	if via := m.Node(rankSender).RouteVia(dest.ID()); via != m.Context(survivorRank).ID() {
		t.Fatalf("healed route via %d, want survivor %d (victim %d)", via, m.Context(survivorRank).ID(), victimID)
	}

	// The same startpoint delivers again over the healed route.
	b2 := buffer.New(32)
	b2.PutString("after")
	if err := sp.RSR("", b2); err != nil {
		t.Fatal(err)
	}
	if !pollAll(ctxs, func() bool { return len(inbox) == 2 }, 5*time.Second) {
		t.Fatalf("post-heal request not delivered; inbox=%v", inbox)
	}
	if inbox[1] != "after" {
		t.Fatalf("post-heal payload = %q", inbox[1])
	}
	if got := m.Context(survivorRank).Stats().Get("forward.relayed"); got < 1 {
		t.Errorf("survivor forward.relayed = %d, want >= 1", got)
	}
}

// TestMeshNoPathFailsFast: with every forwarder gone there is no path between
// the partitions; the sender's route is removed and sends fail immediately
// with ErrNoTable instead of spraying a dead relay.
func TestMeshRouteRemovedWhenNoPath(t *testing.T) {
	m := dynMachine(t, meshConfig(), 60)
	sender, dest := m.Context(rankSender), m.Context(rankDest)
	if via := m.Node(rankSender).RouteVia(dest.ID()); via == 0 {
		t.Fatal("no initial mesh route")
	}

	// All three forwarders leave gracefully.
	for _, r := range []int{rankRelayA, rankRelayB, rankBridge} {
		m.Node(r).Leave()
	}
	nodes := []*Node{m.Node(rankSender), m.Node(rankDest)}
	ctxs := make([]*core.Context, m.Size())
	for i := range ctxs {
		ctxs[i] = m.Context(i)
	}
	if rounds, ok := Settle(nodes, ctxs, 80); !ok {
		t.Fatalf("no reconvergence after forwarders left (%d rounds)", rounds)
	}
	if via := m.Node(rankSender).RouteVia(dest.ID()); via != 0 {
		t.Fatalf("route still installed via %d after all forwarders left", via)
	}
	if sender.PeerTable(dest.ID()) != nil {
		t.Fatal("sender still holds a peer table for the unreachable dest")
	}
	var inbox []string
	sp := liteStartpoint(t, dest, sender, &inbox)
	if err := sp.RSR("", buffer.New(8)); err == nil {
		t.Fatal("send with no path succeeded")
	}
}

// TestRelayExtTTL: a frame whose hop budget is too small for the path is
// dropped at the relay with the ttl_exhausted counter, not delivered and not
// looped.
func TestRelayExtTTLExhaustion(t *testing.T) {
	m := dynMachine(t, meshConfig(), 60)
	// Only the originator stamps the budget; relays decrement the frame's.
	core.SetRelayTTL(m.Context(rankSender), 2) // one hop short of the two-relay path
	ctxs := make([]*core.Context, m.Size())
	for i := range ctxs {
		ctxs[i] = m.Context(i)
	}

	var inbox []string
	sp := liteStartpoint(t, m.Context(rankDest), m.Context(rankSender), &inbox)
	if err := sp.RSR("", buffer.New(8)); err != nil {
		t.Fatal(err)
	}
	exhausted := func() uint64 {
		var n uint64
		for _, c := range ctxs {
			n += c.Stats().Get("forward.ttl_exhausted")
		}
		return n
	}
	if !pollAll(ctxs, func() bool { return exhausted() >= 1 }, 5*time.Second) {
		t.Fatal("no ttl exhaustion observed")
	}
	if len(inbox) != 0 {
		t.Fatalf("frame delivered despite exhausted hop budget: %v", inbox)
	}
}

// TestEdgeFollowsReachRule: a mesh edge exists exactly where a descriptor of
// one table reaches one of the other by the rule the modules apply. Two
// shm-only contexts on different hosts share no memory and get no edge;
// global-scope wan crosses processes; a relay entry is a route, not a link.
func TestEdgeFollowsReachRule(t *testing.T) {
	shmOn := func(ctx transport.ContextID, host string) transport.Descriptor {
		return transport.Descriptor{Method: "shm", Context: ctx, Attrs: map[string]string{
			"host": host, "dir": "/dev/shm/d", "ctl": "/dev/shm/d/ctl.fifo", transport.AttrMaxMessage: "65536"}}
	}
	sim := func(ctx transport.ContextID, method, scope, process, partition string) transport.Descriptor {
		return transport.Descriptor{Method: method, Context: ctx, Attrs: map[string]string{
			"fabric": "f/" + method, "scope": scope, "process": process, "partition": partition, "addr": "1"}}
	}
	relayed := sim(2, "wan", "global", "q", "pB").Clone()
	relayed.Attrs[transport.AttrRelay] = "3"
	for _, tc := range []struct {
		name string
		a, b transport.Descriptor
		want bool
	}{
		{"shm across hosts", shmOn(1, "h1"), shmOn(2, "h2"), false},
		{"shm on one host", shmOn(1, "h1"), shmOn(2, "h1"), true},
		{"global wan across processes", sim(1, "wan", "global", "p", "pA"), sim(2, "wan", "global", "q", "pB"), true},
		{"mpl across partitions", sim(1, "mpl", "partition", "p", "pA"), sim(2, "mpl", "partition", "p", "pB"), false},
		{"mpl in one partition", sim(1, "mpl", "partition", "p", "pA"), sim(2, "mpl", "partition", "p", "pA"), true},
		{"relay entry", sim(1, "wan", "global", "p", "pA"), relayed, false},
	} {
		_, _, ok := edgeBetween(transport.NewTable(tc.a), transport.NewTable(tc.b))
		if ok != tc.want {
			t.Errorf("%s: edge = %v, want %v", tc.name, ok, tc.want)
		}
	}
}
