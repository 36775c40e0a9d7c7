package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"nexus/internal/buffer"
	"nexus/internal/core"
	"nexus/internal/names"
	"nexus/internal/obsv"
	"nexus/internal/transport"
)

// This file implements dynamic membership: a gossip agent (Node) attached to
// a context that maintains a versioned peer/descriptor registry
// (names.Registry) by anti-entropy over ordinary Control-class RSRs. The
// protocol is push-pull in three messages:
//
//	cluster.digest — the sender's own record, which names the sender and
//	                 addresses the reply (so one digest is also a join
//	                 announcement), then a bounded, rotating-window summary
//	                 of the sender's registry;
//	cluster.delta  — the records the responder holds that the digest lacks,
//	                 plus a want-list of origins where the digest was ahead;
//	cluster.push   — the records answering a want-list.
//
// Convergence needs no clocks and no ordering: names.Registry.Merge is a
// deterministic join, so reordered, duplicated, and stale deliveries all
// land on the same table. Applied records feed the live context through
// RefreshPeerTable/RemovePeerTable, whose health-generation bump makes every
// startpoint re-run method selection — a runtime method add/remove at one
// context therefore changes what every peer selects, with no restarts and no
// out-of-band table shipping. Forwarder reachability travels in the same
// records, and mesh.go turns it into multi-hop routes.

// Gossip protocol handler names (Control class, like flow-control grants).
const (
	handlerDigest = "cluster.digest"
	handlerDelta  = "cluster.delta"
	handlerPush   = "cluster.push"
)

// NodeConfig tunes a gossip agent. The zero value is usable: fanout 2,
// bounded digests and deltas.
type NodeConfig struct {
	// Forwarder advertises this context as a relay (and enables forwarding),
	// so mesh routes may pass through it.
	Forwarder bool
	// Mesh enables multi-hop route computation over advertised forwarders.
	Mesh bool
	// Seed fixes peer-sampling randomness; 0 derives it from the context id.
	Seed int64

	// fanout is how many peers each Step contacts (default 2). It is a test
	// seam, not an option: only this package's tests raise it.
	fanout int
}

func (cfg NodeConfig) withDefaults(id transport.ContextID) NodeConfig {
	if cfg.fanout <= 0 {
		cfg.fanout = 2
	}
	if cfg.Seed == 0 {
		cfg.Seed = int64(id)*0x9e3779b9 + 1
	}
	return cfg
}

// Message bounds: maxDigest entries per digest — larger registries are swept
// across rounds by a rotating window — and maxDelta records per delta or push.
const (
	maxDigest = 512
	maxDelta  = 64
)

// Failure detector thresholds: a peer with suspectAfter or more consecutive
// failed sends is suspect (routed around), and suspectAfter*deadAfterFactor
// declare it dead and publish a third-party tombstone.
const (
	suspectAfter    = 1
	deadAfterFactor = 3
)

// spCacheCap bounds the gossip agent's cached reply startpoints.
const spCacheCap = 64

// runInterval is Run's period between Steps.
const runInterval = 50 * time.Millisecond

// Node is a context's gossip agent: one per clustered context.
type Node struct {
	ctx *core.Context
	cfg NodeConfig
	reg *names.Registry
	ep  *core.Endpoint

	mu         sync.Mutex
	rng        *rand.Rand
	self       names.Record          // its table is sealed (NewTable), so a digest copies it
	peerBuf    []transport.ContextID // livePeersLocked's reused origin list
	appliedGen uint64                // registry generation applyRegistry last ran at
	digestPos  int                   // rotating digest window cursor
	probeTick  int
	failures   map[transport.ContextID]int        // consecutive failed sends
	routed     map[transport.ContextID]routeState // mesh.go
	// lastTables keeps each peer's most recent live table even after a
	// tombstone (which carries none), so resurrection probes can still
	// address the peer.
	lastTables  map[transport.ContextID]*transport.Table
	sps         map[spKey]*core.Startpoint
	spOrder     []spKey
	routesDirty bool
	closed      bool
	stopRun     chan struct{}
}

type spKey struct {
	ctx transport.ContextID
	ep  uint64
}

// Attach builds a gossip agent, takes the context's core.LayerCluster slot
// with it, and registers its handlers. The agent is passive until
// Join/Step/Run are called; the context's polling drives message receipt.
// Forwarder agents enable frame forwarding immediately, since mesh routes
// elsewhere may select them as hops.
//
// The first Attach on a context wins: every call, concurrent ones included,
// returns that one agent (cfg is then ignored). A call that lost the attach
// closes the endpoint it built and registers nothing.
func Attach(ctx *core.Context, cfg NodeConfig) *Node {
	if n := NodeOf(ctx); n != nil {
		return n
	}
	cfg = cfg.withDefaults(ctx.ID())
	n := &Node{
		ctx:        ctx,
		cfg:        cfg,
		reg:        names.NewRegistry(),
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		failures:   make(map[transport.ContextID]int),
		routed:     make(map[transport.ContextID]routeState),
		lastTables: make(map[transport.ContextID]*transport.Table),
		sps:        make(map[spKey]*core.Startpoint),
	}
	n.ep = ctx.NewEndpoint()
	n.self = names.Record{
		Origin:    ctx.ID(),
		Seq:       1,
		Forwarder: cfg.Forwarder,
		Partition: ctx.Partition(),
		GossipEP:  n.ep.ID(),
		Table:     transport.NewTable(ctx.AdvertisedTable().Entries...),
	}
	n.reg.Merge(n.self)
	if got := ctx.Attach(core.LayerCluster, n).(*Node); got != n {
		n.ep.Close()
		return got
	}
	ctx.RegisterHandler(handlerDigest, n.onDigest)
	ctx.RegisterHandler(handlerDelta, n.onDelta)
	ctx.RegisterHandler(handlerPush, n.onPush)
	if cfg.Forwarder {
		ctx.EnableForwarding()
	}
	return n
}

// NodeOf returns the gossip agent attached to the context, or nil.
func NodeOf(ctx *core.Context) *Node {
	n, _ := ctx.Attached(core.LayerCluster).(*Node)
	return n
}

// Context returns the agent's context.
func (n *Node) Context() *core.Context { return n.ctx }

// Registry exposes the agent's membership registry (shared, concurrent-safe).
func (n *Node) Registry() *names.Registry { return n.reg }

// Bootstrap returns the address a joining peer needs: this context's
// advertised descriptor table and the gossip endpoint id. It is the only
// thing that must travel out of band — every other table arrives by gossip.
func (n *Node) Bootstrap() (*transport.Table, uint64) {
	return n.ctx.AdvertisedTable(), n.ep.ID()
}

// Join announces this context to a seed peer: one digest message carrying our
// own record and a summary of everything we already hold. The seed's delta
// reply starts anti-entropy; subsequent Steps complete the bootstrap with no
// further out-of-band input.
func (n *Node) Join(seedTable *transport.Table, seedEP uint64) error {
	if seedTable == nil || seedTable.Len() == 0 {
		return fmt.Errorf("cluster: join needs a seed descriptor table")
	}
	seed := seedTable.Entries[0].Context
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return fmt.Errorf("cluster: node %d has left", n.ctx.ID())
	}
	sp := n.startpointLocked(seed, seedEP, seedTable)
	msg := n.digestMsgLocked()
	n.mu.Unlock()
	err := n.sendDigest(sp, msg)
	digestMsgs.Put(msg)
	n.noteSend(seed, err)
	if err != nil {
		return fmt.Errorf("cluster: join via context %d: %w", seed, err)
	}
	n.ctx.Stats().Counter("cluster.join").Inc()
	return nil
}

// Leave publishes a tombstone for this context under a fresh version and
// pushes it directly to up to 2×fanout live peers (best effort — anti-entropy
// spreads it regardless). The agent stops gossiping afterwards.
func (n *Node) Leave() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.self = names.Record{
		Origin:    n.self.Origin,
		Seq:       n.self.Seq + 1,
		Tombstone: true,
		Partition: n.self.Partition,
		GossipEP:  n.self.GossipEP,
	}
	tomb := n.self
	n.reg.Merge(tomb)
	peers := n.livePeersLocked(2 * n.cfg.fanout)
	targets := make([]*core.Startpoint, 0, len(peers))
	for _, p := range peers {
		targets = append(targets, n.startpointLocked(p.Origin, p.GossipEP, p.Table))
	}
	n.mu.Unlock()
	// One message serves every target: RSR copies the buffer it sends.
	tombs := []names.Record{tomb}
	b := buffer.New(recordsLen(tombs))
	names.EncodeRecords(b, tombs)
	for _, sp := range targets {
		if sp.RSR(handlerPush, b) != nil {
			n.ctx.Stats().Counter("cluster.leave.unsent").Inc()
		}
	}
	n.ctx.Stats().Counter("cluster.leave").Inc()
}

// Closed reports whether the agent has left the cluster.
func (n *Node) Closed() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.closed
}

// Step runs one gossip round: refresh the self record if the advertised
// table changed, fold registry changes into the context's peer tables and
// mesh routes, then send bounded digests to fanout random live peers.
// Safe to call from any goroutine; typically driven by Run or a test loop.
func (n *Node) Step() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.refreshSelfLocked()
	n.applyRegistryLocked()
	type dst struct {
		sp     *core.Startpoint
		origin transport.ContextID
		probe  bool
	}
	peers := n.livePeersLocked(n.cfg.fanout)
	msg := n.digestMsgLocked()
	targets := make([]dst, 0, len(peers)+1)
	for _, p := range peers {
		targets = append(targets, dst{sp: n.startpointLocked(p.Origin, p.GossipEP, p.Table), origin: p.Origin})
	}
	// Resurrection probe: every few rounds, one digest goes to a random
	// tombstoned peer. A peer that was wrongly declared dead (it was only
	// partitioned away) thereby learns of its own tombstone, readopts its
	// record at a higher version, and the halves reconcile — without this,
	// two healed partitions each believe the other departed and never
	// exchange another message. A genuinely dead peer just costs one failed
	// send. The probe bypasses noteSend: a tombstoned peer has no liveness
	// left to damage.
	n.probeTick++
	if n.probeTick%probeEvery == 0 {
		tombs := n.reg.Tombstones()
		tombs = slices.DeleteFunc(tombs, func(rec names.Record) bool {
			return rec.Origin == n.self.Origin || rec.GossipEP == 0
		})
		if len(tombs) > 0 {
			p := tombs[n.rng.Intn(len(tombs))]
			if t := n.lastTables[p.Origin]; t != nil {
				targets = append(targets, dst{sp: n.startpointLocked(p.Origin, p.GossipEP, t), origin: p.Origin, probe: true})
				n.ctx.Stats().Counter("cluster.probe.tx").Inc()
			}
		}
	}
	n.mu.Unlock()
	for _, t := range targets {
		err := n.sendDigest(t.sp, msg)
		if t.probe {
			if err != nil {
				n.invalidateStartpoint(t.origin)
			}
		} else {
			n.noteSend(t.origin, err)
		}
	}
	digestMsgs.Put(msg)
	// Send outcomes are fresh failure-detector evidence (failure counts
	// raised or cleared); fold them into mesh routes now rather than a round
	// later — this is what lets a route heal in the same round its relay's
	// death (or resurrection) was observed.
	n.mu.Lock()
	if n.cfg.Mesh && n.routesDirty && !n.closed {
		n.routesDirty = false
		n.recomputeRoutesLocked()
	}
	n.mu.Unlock()
	n.ctx.Stats().Counter("cluster.rounds").Inc()
}

// probeEvery is how often (in Steps) a node probes one tombstoned peer.
const probeEvery = 4

// Run drives Step every runInterval from a background goroutine until the
// returned stop function is called (or Leave).
func (n *Node) Run() (stop func()) {
	n.mu.Lock()
	if n.stopRun != nil || n.closed {
		n.mu.Unlock()
		return func() {}
	}
	ch := make(chan struct{})
	n.stopRun = ch
	n.mu.Unlock()
	go func() {
		tick := time.NewTicker(runInterval)
		defer tick.Stop()
		for {
			select {
			case <-ch:
				return
			case <-tick.C:
				n.Step()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(ch)
			n.mu.Lock()
			n.stopRun = nil
			n.mu.Unlock()
		})
	}
}

// refreshSelfLocked republishes the self record when the context's advertised
// table changed (a method enabled, disabled, or re-parameterised at runtime)
// and recovers from observing our own tombstone or a higher version of
// ourselves (a rejoin after a crash verdict): the record is readopted at one
// past the highest sequence seen, so the live record wins everywhere.
func (n *Node) refreshSelfLocked() {
	if cur, ok := n.reg.Get(n.self.Origin); ok && (cur.Tombstone || cur.Seq > n.self.Seq) {
		n.self.Seq = cur.Seq + 1
		n.self.Tombstone = false
		n.self.Table = transport.NewTable(n.ctx.AdvertisedTable().Entries...)
		n.reg.Merge(n.self)
		n.ctx.Stats().Counter("cluster.self.rejoin").Inc()
		return
	}
	t := n.ctx.AdvertisedTable()
	if t.Equal(n.self.Table) {
		return
	}
	n.self.Seq++
	n.self.Table = transport.NewTable(t.Entries...)
	n.reg.Merge(n.self)
	n.ctx.Stats().Counter("cluster.self.refresh").Inc()
}

// applyRegistryLocked folds registry changes into the live context: applied
// live records refresh the peer's descriptor table (bumping the health
// generation, so in-flight startpoints re-select), tombstones remove it (so
// subsequent sends fail fast with ErrNoTable instead of using a stale
// descriptor), and any change marks mesh routes for recomputation. Only the
// records applied since the last fold are read, and every one of them is
// folded: the registry's generation moves only when a merge changes a record.
func (n *Node) applyRegistryLocked() {
	recs, gen := n.reg.ChangedSince(n.appliedGen)
	n.appliedGen = gen
	for _, rec := range recs {
		if rec.Origin == n.self.Origin {
			continue
		}
		n.dropPeerLocked(rec.Origin)
		n.routesDirty = true
		if rec.Tombstone {
			n.ctx.RemovePeerTable(rec.Origin)
			n.ctx.Stats().Counter("cluster.applied.tombstone").Inc()
			continue
		}
		if rec.Table != nil {
			n.lastTables[rec.Origin] = rec.Table
			n.ctx.RefreshPeerTable(rec.Table)
		}
		n.ctx.Stats().Counter("cluster.applied.record").Inc()
	}
	if n.cfg.Mesh && n.routesDirty {
		n.routesDirty = false
		n.recomputeRoutesLocked()
	}
}

// dropPeerLocked forgets per-peer send state for an origin whose record
// changed: its failure count, and its cached gossip startpoints, which rebind
// on next use so a bootstrap-era binding cannot outlive the table it was
// built from.
func (n *Node) dropPeerLocked(origin transport.ContextID) {
	delete(n.failures, origin)
	n.closeSPsLocked(origin)
}

// closeSPsLocked evicts cached startpoints addressing the given origin.
func (n *Node) closeSPsLocked(origin transport.ContextID) {
	for k, sp := range n.sps {
		if k.ctx == origin {
			sp.Close()
			delete(n.sps, k)
		}
	}
}

// livePeersLocked shuffles the live peers other than self and returns the
// records of the first max of them. The shuffle runs over every live peer,
// in origin order, so the RNG draws the same numbers as a shuffle of the
// records themselves; only the origins are gathered, into a buffer the node
// reuses, and only the chosen records are read.
func (n *Node) livePeersLocked(max int) []names.Record {
	origins := n.reg.LiveOrigins(n.peerBuf[:0])
	n.peerBuf = origins
	peers := slices.DeleteFunc(origins, func(o transport.ContextID) bool { return o == n.self.Origin })
	n.rng.Shuffle(len(peers), func(i, j int) { peers[i], peers[j] = peers[j], peers[i] })
	if len(peers) > max {
		peers = peers[:max]
	}
	out := make([]names.Record, 0, len(peers))
	for _, o := range peers {
		if rec, ok := n.reg.Get(o); ok && !rec.Tombstone {
			out = append(out, rec)
		}
	}
	return out
}

// startpointLocked returns a cached Control-class startpoint for a peer's
// gossip endpoint. When the context has a registered peer table for the
// target the startpoint resolves through it lazily — so it follows gossip
// refreshes and mesh route installs automatically — otherwise the record's
// own table is bound directly (the bootstrap case).
func (n *Node) startpointLocked(ctx transport.ContextID, ep uint64, table *transport.Table) *core.Startpoint {
	key := spKey{ctx: ctx, ep: ep}
	if sp, ok := n.sps[key]; ok {
		return sp
	}
	var bind *transport.Table
	if !n.ctx.HasPeerTable(ctx) {
		bind = table
	}
	sp := n.ctx.NewStartpointTo(ctx, ep, bind)
	sp.SetClass(core.ClassControl)
	if len(n.spOrder) >= spCacheCap {
		oldest := n.spOrder[0]
		n.spOrder = n.spOrder[1:]
		if old, ok := n.sps[oldest]; ok {
			old.Close()
			delete(n.sps, oldest)
		}
	}
	n.sps[key] = sp
	n.spOrder = append(n.spOrder, key)
	return sp
}

// invalidateStartpoint drops a cached startpoint after a send failure, so the
// next message rebinds from current tables.
func (n *Node) invalidateStartpoint(ctx transport.ContextID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for k, sp := range n.sps {
		if k.ctx == ctx {
			sp.Close()
			delete(n.sps, k)
		}
	}
}

// noteSend is the failure detector: consecutive send failures first make the
// peer suspect (mesh routes avoid it), then declare it dead with a
// third-party tombstone at one past its last version — the no-clock analogue
// of a crash notice. Any success clears the slate.
func (n *Node) noteSend(origin transport.ContextID, err error) {
	if err == nil {
		n.mu.Lock()
		if n.failures[origin] != 0 {
			delete(n.failures, origin)
			n.routesDirty = true
		}
		n.mu.Unlock()
		return
	}
	n.invalidateStartpoint(origin)
	n.mu.Lock()
	n.failures[origin]++
	f := n.failures[origin]
	if f == suspectAfter {
		n.routesDirty = true
		n.ctx.Stats().Counter("cluster.peer.suspect").Inc()
	}
	dead := f >= suspectAfter*deadAfterFactor
	var tomb names.Record
	if dead {
		if rec, ok := n.reg.Get(origin); ok && !rec.Tombstone {
			tomb = names.Record{
				Origin:    origin,
				Seq:       rec.Seq + 1,
				Tombstone: true,
				Partition: rec.Partition,
				GossipEP:  rec.GossipEP,
			}
		} else {
			dead = false
		}
	}
	n.mu.Unlock()
	if dead {
		n.reg.Merge(tomb)
		n.ctx.Stats().Counter("cluster.peer.dead").Inc()
	}
}

// digestMsgs recycles digest messages: RSR copies the buffer it sends, so a
// round's message is free again once its sends have returned.
var digestMsgs sync.Pool

// digestMsgLocked builds a round's digest message — [self record][digest],
// the digest packed straight from the registry at the rotating window cursor
// — and advances the cursor. The self record names the sender and its gossip
// endpoint, so the message needs no other header. One message serves every
// target of the round; the caller hands it back to digestMsgs after the
// sends. A new buffer is sized to the whole message: the record batch, the
// digest's 20 fixed bytes and 24 B per entry.
func (n *Node) digestMsgLocked() *buffer.Buffer {
	recs := []names.Record{n.self}
	b, _ := digestMsgs.Get().(*buffer.Buffer)
	if b == nil {
		b = buffer.New(recordsLen(recs) + 20 + 24*min(n.reg.Len(), maxDigest))
	}
	b.Reset()
	names.EncodeRecords(b, recs)
	n.digestPos = n.reg.AppendDigest(b, n.digestPos, maxDigest)
	return b
}

// sendDigest ships one digest message built by digestMsgLocked.
func (n *Node) sendDigest(sp *core.Startpoint, msg *buffer.Buffer) error {
	err := sp.RSR(handlerDigest, msg)
	if err == nil {
		n.ctx.Stats().Counter("cluster.digest.tx").Inc()
	}
	return err
}

// replyTo builds a startpoint back to a message's sender. The sender's own
// record rode in the message, so its table is always available even before
// the registry has it.
func (n *Node) replyTo(from transport.ContextID, fromEP uint64, senderTable *transport.Table) *core.Startpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.startpointLocked(from, fromEP, senderTable)
}

// digestScratch holds the digests onDigest decodes into. Each handler call
// takes its own, so concurrent deliveries on a threaded context never share
// one, and an honest digest lands in storage an earlier one left behind.
var digestScratch = sync.Pool{New: func() any { return new(names.Digest) }}

// onDigest answers a digest with the delta the sender lacks and a want-list
// push request for what we lack (rolled into the same delta message). The
// digest's first record is the sender's own: its origin, gossip endpoint and
// table address the reply.
func (n *Node) onDigest(_ *core.Endpoint, b *buffer.Buffer) {
	recs, err := names.DecodeRecords(b)
	if err != nil || b.Err() != nil || len(recs) == 0 {
		n.ctx.Stats().Counter("cluster.decode.errors").Inc()
		return
	}
	digest := digestScratch.Get().(*names.Digest)
	defer digestScratch.Put(digest)
	if err := digest.Decode(b); err != nil {
		n.ctx.Stats().Counter("cluster.decode.errors").Inc()
		return
	}
	n.ctx.Stats().Counter("cluster.digest.rx").Inc()
	sender := recs[0]
	from := sender.Origin
	n.reg.MergeAll(recs)
	delta, wants := n.reg.DeltaFor(*digest, maxDelta)
	// Never ship the sender its own record back: it is the authority on it
	// (and during a leave push race, echoing it would be pure noise).
	trimmed := delta[:0]
	for _, r := range delta {
		if r.Origin != from {
			trimmed = append(trimmed, r)
		}
	}
	delta = trimmed
	if len(delta) == 0 && len(wants) == 0 {
		return
	}
	sp := n.replyTo(from, sender.GossipEP, sender.Table)
	n.mu.Lock()
	self := n.self
	n.mu.Unlock()
	out := buffer.New(16 + recordsLen(delta) + 4 + 8*len(wants))
	out.PutUint64(uint64(self.Origin))
	out.PutUint64(self.GossipEP)
	names.EncodeRecords(out, delta)
	out.PutUint32(uint32(len(wants)))
	for _, w := range wants {
		out.PutUint64(uint64(w))
	}
	err = sp.RSR(handlerDelta, out)
	n.noteSend(from, err)
	if err == nil {
		n.ctx.Stats().Counter("cluster.delta.tx").Inc()
	}
}

// onDelta merges the responder's records and answers its want-list with a
// push of the records it asked for.
func (n *Node) onDelta(_ *core.Endpoint, b *buffer.Buffer) {
	from := transport.ContextID(b.Uint64())
	fromEP := b.Uint64()
	recs, err := names.DecodeRecords(b)
	if err != nil || b.Err() != nil {
		n.ctx.Stats().Counter("cluster.decode.errors").Inc()
		return
	}
	nw := int(b.Uint32())
	if b.Err() != nil || nw < 0 || nw*8 > b.Remaining() {
		n.ctx.Stats().Counter("cluster.decode.errors").Inc()
		return
	}
	wants := make([]transport.ContextID, 0, nw)
	for i := 0; i < nw; i++ {
		wants = append(wants, transport.ContextID(b.Uint64()))
	}
	if b.Err() != nil {
		n.ctx.Stats().Counter("cluster.decode.errors").Inc()
		return
	}
	n.ctx.Stats().Counter("cluster.delta.rx").Inc()
	if applied := n.reg.MergeAll(recs); applied > 0 {
		n.ctx.Stats().Counter("cluster.merged").Add(uint64(applied))
	}
	if len(wants) == 0 {
		return
	}
	answer := n.reg.RecordsFor(wants, maxDelta)
	if len(answer) == 0 {
		return
	}
	sp := n.replyTo(from, fromEP, nil)
	out := buffer.New(recordsLen(answer))
	names.EncodeRecords(out, answer)
	err = sp.RSR(handlerPush, out)
	n.noteSend(from, err)
	if err == nil {
		n.ctx.Stats().Counter("cluster.push.tx").Inc()
	}
}

// onPush merges an unsolicited record batch (want-list answers, leave
// notices, join relays).
func (n *Node) onPush(_ *core.Endpoint, b *buffer.Buffer) {
	recs, err := names.DecodeRecords(b)
	if err != nil || b.Err() != nil {
		n.ctx.Stats().Counter("cluster.decode.errors").Inc()
		return
	}
	n.ctx.Stats().Counter("cluster.push.rx").Inc()
	if applied := n.reg.MergeAll(recs); applied > 0 {
		n.ctx.Stats().Counter("cluster.merged").Add(uint64(applied))
	}
}

// ObserveInto fills the snapshot's membership view: one row per registry
// record, with the mesh next hop for destinations currently routed. The
// context's Observe calls it through the agent's core.LayerCluster slot.
func (n *Node) ObserveInto(s *obsv.Snapshot) {
	snap := n.reg.Snapshot()
	n.mu.Lock()
	routed := make(map[transport.ContextID]transport.ContextID, len(n.routed))
	for d, rs := range n.routed {
		routed[d] = rs.via
	}
	n.mu.Unlock()
	out := make([]obsv.ClusterMember, 0, len(snap))
	for _, rec := range snap {
		m := obsv.ClusterMember{
			Context:   uint64(rec.Origin),
			Partition: rec.Partition,
			Seq:       rec.Seq,
			Tombstone: rec.Tombstone,
			Forwarder: rec.Forwarder,
			Via:       uint64(routed[rec.Origin]),
		}
		if rec.Table != nil {
			ms := make([]string, 0, rec.Table.Len())
			seen := map[string]bool{}
			for _, e := range rec.Table.Entries {
				if !seen[e.Method] {
					seen[e.Method] = true
					ms = append(ms, e.Method)
				}
			}
			sort.Strings(ms)
			m.Methods = strings.Join(ms, ",")
		}
		out = append(out, m)
	}
	s.Cluster = out
}

// recordsLen is the size names.EncodeRecords packs recs into: a 4 B count
// and the records.
func recordsLen(recs []names.Record) int {
	n := 4
	for _, r := range recs {
		n += r.EncodedLen()
	}
	return n
}
