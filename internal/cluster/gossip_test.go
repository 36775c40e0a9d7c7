package cluster

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"nexus/internal/buffer"
	"nexus/internal/core"
	"nexus/internal/names"
	"nexus/internal/transport"
)

// dynMachine boots a dynamic (gossip-membership) machine and settles it.
func dynMachine(t *testing.T, cfg Config, maxRounds int) *Machine {
	t.Helper()
	if cfg.Dynamic == nil {
		cfg.Dynamic = &NodeConfig{fanout: 8}
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	if rounds, ok := m.Settle(maxRounds); !ok {
		t.Fatalf("machine did not converge in %d rounds", rounds)
	}
	return m
}

func TestDynamicMachineBootstrap(t *testing.T) {
	// No wire(): every table must arrive by gossip through the single seed.
	m := dynMachine(t, Config{Nodes: []NodeSpec{
		{Partition: "p", Methods: []core.MethodConfig{fastMPL()}},
		{Partition: "p", Methods: []core.MethodConfig{fastMPL()}},
		{Partition: "p", Methods: []core.MethodConfig{fastMPL()}},
		{Partition: "p", Methods: []core.MethodConfig{fastMPL()}},
	}}, 40)

	// Every node holds 4 live records.
	for r := 0; r < m.Size(); r++ {
		if got := len(m.Node(r).Registry().Live()); got != 4 {
			t.Fatalf("rank %d sees %d live members, want 4", r, got)
		}
	}
	// A lightweight startpoint resolves on every node without any manual
	// RegisterPeerTable: gossip installed the peer tables.
	delivered := 0
	ep := m.Context(0).NewEndpoint(core.WithHandler(func(*core.Endpoint, *buffer.Buffer) { delivered++ }))
	for r := 1; r < m.Size(); r++ {
		b := buffer.New(64)
		ep.NewStartpoint().EncodeLite(b)
		dec, err := buffer.FromBytes(b.Encode())
		if err != nil {
			t.Fatal(err)
		}
		sp, err := m.Context(r).DecodeStartpoint(dec)
		if err != nil {
			t.Fatal(err)
		}
		if err := sp.RSR("", nil); err != nil {
			t.Fatalf("rank %d lite RSR: %v", r, err)
		}
	}
	for w := 0; w < 10 && delivered < m.Size()-1; w++ {
		m.Context(0).Poll()
	}
	if delivered != m.Size()-1 {
		t.Fatalf("delivered %d lite RSRs, want %d", delivered, m.Size()-1)
	}
	// Observability: the membership view is wired into snapshots.
	snap := m.Context(0).Observe()
	if len(snap.Cluster) != 4 {
		t.Fatalf("snapshot cluster view has %d rows, want 4", len(snap.Cluster))
	}
}

func TestRuntimeMethodChangePropagates(t *testing.T) {
	// Nodes advertise mpl+inproc; the receiver then withdraws mpl at runtime.
	// Peers must re-select to inproc on their next send — no restarts.
	mc := []core.MethodConfig{fastMPL(), inprocCfg()}
	m := dynMachine(t, Config{Nodes: []NodeSpec{
		{Partition: "p", Methods: mc},
		{Partition: "p", Methods: mc},
	}}, 40)

	hits := 0
	ep := m.Context(0).NewEndpoint(core.WithHandler(func(*core.Endpoint, *buffer.Buffer) { hits++ }))
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
	if err := sp.RSR("", nil); err != nil {
		t.Fatal(err)
	}
	if got := sp.MethodFor(m.Context(0).ID()); got != "mpl" {
		t.Fatalf("initial method = %q, want mpl", got)
	}

	// Withdraw mpl from rank 0's advertised table (runtime remove).
	table := m.Context(0).AdvertisedTable()
	kept := table.Entries[:0]
	for _, e := range table.Entries {
		if e.Method != "mpl" {
			kept = append(kept, e)
		}
	}
	table.Entries = kept
	m.Context(0).SetAdvertisedTable(table)
	if rounds, ok := m.Settle(40); !ok {
		t.Fatalf("did not reconverge after method withdrawal (%d rounds)", rounds)
	}

	// The next send from the same live startpoint re-selects inproc.
	if err := sp.RSR("", nil); err != nil {
		t.Fatal(err)
	}
	if got := sp.MethodFor(m.Context(0).ID()); got != "inproc" {
		t.Fatalf("method after withdrawal = %q, want inproc", got)
	}
	for w := 0; w < 10 && hits < 2; w++ {
		m.Context(0).Poll()
	}
	if hits != 2 {
		t.Fatalf("delivered %d RSRs, want 2", hits)
	}
}

func TestNoStaleSendsAfterLeave(t *testing.T) {
	m := dynMachine(t, Config{Nodes: []NodeSpec{
		{Partition: "p", Methods: []core.MethodConfig{fastMPL()}},
		{Partition: "p", Methods: []core.MethodConfig{fastMPL()}},
		{Partition: "p", Methods: []core.MethodConfig{fastMPL()}},
	}}, 40)

	// A live lightweight link from rank 2 to rank 1.
	ep := m.Context(1).NewEndpoint(core.WithHandler(func(*core.Endpoint, *buffer.Buffer) {}))
	b := buffer.New(64)
	ep.NewStartpoint().EncodeLite(b)
	dec, err := buffer.FromBytes(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	sp, err := m.Context(2).DecodeStartpoint(dec)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.RSR("", nil); err != nil {
		t.Fatal(err)
	}

	// Rank 1 leaves gracefully; the tombstone spreads and auto-registration
	// removes its peer table everywhere.
	m.Node(1).Leave()
	if rounds, ok := m.Settle(40); !ok {
		t.Fatalf("did not reconverge after leave (%d rounds)", rounds)
	}
	if rec, okRec := m.Node(2).Registry().Get(m.Context(1).ID()); !okRec || !rec.Tombstone {
		t.Fatalf("rank 2 registry record for departed peer: %+v ok=%v", rec, okRec)
	}

	// Zero stale-descriptor sends: the cached link must fail fast with
	// ErrNoTable, not transmit to the departed context.
	sent := m.Context(2).Stats().Get("rsr.sent")
	if err := sp.RSR("", nil); !errors.Is(err, core.ErrNoTable) {
		t.Fatalf("send after leave: err=%v, want ErrNoTable", err)
	}
	if got := m.Context(2).Stats().Get("rsr.sent"); got != sent {
		t.Fatalf("rsr.sent moved %d -> %d after leave", sent, got)
	}
}

func TestRejoinAfterTombstone(t *testing.T) {
	m := dynMachine(t, Config{Nodes: []NodeSpec{
		{Partition: "p", Methods: []core.MethodConfig{fastMPL()}},
		{Partition: "p", Methods: []core.MethodConfig{fastMPL()}},
	}}, 40)
	n1 := m.Node(1)

	// Rank 0 wrongly declares rank 1 dead (third-party tombstone).
	rec, _ := m.Node(0).Registry().Get(m.Context(1).ID())
	m.Node(0).Registry().Merge(tombstoneOf(rec))
	if rounds, ok := m.Settle(40); !ok {
		t.Fatalf("no reconvergence after tombstone (%d rounds)", rounds)
	}
	// Rank 1 must have readopted its record above the tombstone and be live
	// everywhere again.
	got, _ := m.Node(0).Registry().Get(m.Context(1).ID())
	if got.Tombstone {
		t.Fatalf("rank 1 still tombstoned at rank 0: %+v", got)
	}
	if got.Seq <= rec.Seq {
		t.Fatalf("rejoined seq %d not above tombstone base %d", got.Seq, rec.Seq)
	}
	if n1.Closed() {
		t.Fatal("live node believes it left")
	}
}

func tombstoneOf(rec names.Record) names.Record {
	rec.Seq++
	rec.Tombstone = true
	rec.Table = nil
	return rec
}

// TestConcurrentAttach races eight Attach calls on one context behind a
// start barrier, 200 times. Every caller must get the same agent, and that
// agent must be the one serving the context's gossip handlers: a peer's join
// lands in its registry.
func TestConcurrentAttach(t *testing.T) {
	const callers, trials = 8, 200
	for trial := 0; trial < trials; trial++ {
		exchange := transport.Params{"exchange": fmt.Sprintf("concurrent-attach-%d", trial)}
		seed, joiner := newDynCtx(t, exchange), newDynCtx(t, exchange)
		got := make([]*Node, callers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				got[i] = Attach(seed, NodeConfig{})
			}(i)
		}
		close(start)
		wg.Wait()
		for i, n := range got {
			if n != got[0] || n != NodeOf(seed) {
				t.Fatalf("trial %d: caller %d got agent %p, caller 0 %p, slot %p", trial, i, n, got[0], NodeOf(seed))
			}
		}
		j := Attach(joiner, NodeConfig{})
		if err := j.Join(got[0].Bootstrap()); err != nil {
			t.Fatal(err)
		}
		joined := func() bool { _, ok := got[0].Registry().Get(joiner.ID()); return ok }
		if !seed.PollUntil(joined, 5*time.Second) {
			t.Fatalf("trial %d: the attached agent never saw the join", trial)
		}
		seed.Close()
		joiner.Close()
	}
}

// TestConcurrentDigests delivers digests from two senders to one agent on a
// threaded context, from two goroutines at once. Dispatch lanes serialize the
// frames of one endpoint, so the goroutines call the handler directly, as two
// lanes would: each call must judge its own digest, never one a concurrent
// call decoded (the race detector flags shared scratch), and every sender
// must end up with its records wanted and merged.
func TestConcurrentDigests(t *testing.T) {
	exchange := transport.Params{"exchange": "concurrent-digests"}
	tc, err := core.NewContext(core.Options{Threaded: true, Methods: []core.MethodConfig{{Name: "inproc", Params: exchange}}})
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	target := Attach(tc, NodeConfig{})
	var senders [2]*Node
	want := 1
	for i := range senders {
		c := newDynCtx(t, exchange)
		defer c.Close()
		// The sender can answer the target without a gossip round of its own.
		c.RefreshPeerTable(tc.AdvertisedTable())
		senders[i] = Attach(c, NodeConfig{})
		// Records the target lacks, a different number per sender, so the
		// two digests differ in length and in what they make the target want.
		for o := 0; o < 20*(i+1); o++ {
			senders[i].reg.Merge(names.Record{Origin: transport.ContextID(1_000_000*(i+1) + o), Seq: 1, Partition: "x"})
		}
		want += senders[i].reg.Len()
	}
	var wg sync.WaitGroup
	for _, s := range senders {
		wg.Add(1)
		go func(s *Node) {
			defer wg.Done()
			for r := 0; r < 200; r++ {
				s.mu.Lock()
				msg := s.digestMsgLocked()
				s.mu.Unlock()
				target.onDigest(nil, msg)
			}
		}(s)
	}
	wg.Wait()
	if errs := tc.Stats().Counter("cluster.decode.errors").Load(); errs != 0 {
		t.Fatalf("%d digests failed to decode", errs)
	}
	// The senders answer the target's want-lists with pushes.
	merged := func() bool {
		for _, s := range senders {
			s.ctx.Poll()
		}
		return target.reg.Len() == want
	}
	if !tc.PollUntil(merged, 5*time.Second) {
		t.Fatalf("target holds %d records, want %d", target.reg.Len(), want)
	}
}

// TestDigestWithoutSenderRecord pins that a digest names its sender only by
// its first record: one that carries no records has no one to answer, and is
// counted as a decode error rather than judged.
func TestDigestWithoutSenderRecord(t *testing.T) {
	c := newDynCtx(t, transport.Params{"exchange": "digest-no-sender"})
	defer c.Close()
	n := Attach(c, NodeConfig{})
	b := buffer.New(64)
	names.EncodeRecords(b, nil)
	n.reg.AppendDigest(b, 0, maxDigest)
	n.onDigest(nil, b)
	st := c.Stats()
	if errs, rx := st.Get("cluster.decode.errors"), st.Get("cluster.digest.rx"); errs != 1 || rx != 0 {
		t.Fatalf("decode.errors = %d, digest.rx = %d; want 1 and 0", errs, rx)
	}
}

// TestStartpointCacheEvictsOldestLive pins the gossip startpoint cache's
// eviction: the cap counts the startpoints cached now, not ones already
// closed, and a startpoint cached again after it was closed counts as the
// newest, so a full cache evicts the oldest one still cached.
func TestStartpointCacheEvictsOldestLive(t *testing.T) {
	c := newDynCtx(t, transport.Params{"exchange": "sp-cache"})
	defer c.Close()
	n := Attach(c, NodeConfig{})
	cached := map[transport.ContextID]*core.Startpoint{}
	put := func(o transport.ContextID) {
		n.mu.Lock()
		cached[o] = n.startpointLocked(o, 1, nil)
		n.mu.Unlock()
	}
	for o := transport.ContextID(1); o <= spCacheCap; o++ {
		put(o)
	}
	// A send failure closes one: 63 remain, so the next is cached without
	// evicting any.
	n.invalidateStartpoint(10)
	delete(cached, 10)
	put(100)
	// A changed record closes another, which is then cached again as the
	// newest; the next one evicts the oldest, origin 1.
	n.mu.Lock()
	n.dropPeerLocked(20)
	n.mu.Unlock()
	put(20)
	put(101)
	delete(cached, 1)

	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.sps) != spCacheCap || len(n.spOrder) != spCacheCap {
		t.Fatalf("cache holds %d startpoints in an order of %d, want %d and %d", len(n.sps), len(n.spOrder), spCacheCap, spCacheCap)
	}
	for o, sp := range cached {
		if n.startpointLocked(o, 1, nil) != sp {
			t.Errorf("origin %d's startpoint was evicted", o)
		}
	}
}

// TestStartpointCacheFollowsPeerTable pins which applied records rebuild a
// peer's cached gossip startpoint: one that resolves through the peer table
// follows a newer live record by itself and is kept; after a tombstone
// removes the peer table it is replaced by one bound to the record's table.
func TestStartpointCacheFollowsPeerTable(t *testing.T) {
	c := newDynCtx(t, transport.Params{"exchange": "sp-follow"})
	defer c.Close()
	n := Attach(c, NodeConfig{})
	const peer = transport.ContextID(50)
	table := func(addr string) *transport.Table {
		return transport.NewTable(transport.Descriptor{Method: "inproc", Context: peer,
			Attrs: map[string]string{"exchange": "sp-follow", "addr": addr}})
	}
	apply := func(rec names.Record) {
		n.reg.Merge(rec)
		n.applyRegistryLocked()
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	apply(names.Record{Origin: peer, Seq: 1, GossipEP: 1, Table: table("a")})
	if !c.HasPeerTable(peer) {
		t.Fatal("applied record registered no peer table")
	}
	sp := n.startpointLocked(peer, 1, table("a"))

	apply(names.Record{Origin: peer, Seq: 2, GossipEP: 1, Table: table("b")})
	if got := n.startpointLocked(peer, 1, table("b")); got != sp {
		t.Error("a newer live record rebuilt a startpoint that resolves through the peer table")
	}

	apply(names.Record{Origin: peer, Seq: 3, Tombstone: true})
	if c.HasPeerTable(peer) {
		t.Fatal("tombstone left the peer table registered")
	}
	if got := n.startpointLocked(peer, 1, table("b")); got == sp {
		t.Error("the startpoint cached before a tombstone survived it")
	}
	if len(n.sps) != 1 || len(n.spOrder) != 1 {
		t.Errorf("cache holds %d startpoints in an order of %d, want 1 and 1", len(n.sps), len(n.spOrder))
	}
}

// newDynCtx builds a bare context (no agent) on the given inproc exchange.
func newDynCtx(t *testing.T, params transport.Params) *core.Context {
	t.Helper()
	c, err := core.NewContext(core.Options{Methods: []core.MethodConfig{{Name: "inproc", Params: params}}})
	if err != nil {
		t.Fatal(err)
	}
	return c
}
