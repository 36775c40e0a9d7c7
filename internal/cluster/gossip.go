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
	"nexus/internal/metrics"
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
	c   counters

	mu         sync.Mutex
	rng        *rand.Rand
	self       names.Record          // its table is sealed (NewTable), so a digest copies it
	peerBuf    []transport.ContextID // livePeersLocked's reused origin list
	peerRecs   []names.Record        // livePeersLocked's reused result
	changed    []names.Record        // applyRegistryLocked's reused ChangedSince result
	appliedGen uint64                // registry generation applyRegistry last ran at
	digestPos  int                   // rotating digest window cursor
	probeTick  int
	failures   map[transport.ContextID]int        // consecutive failed sends
	routed     map[transport.ContextID]routeState // mesh.go
	// lastTables keeps the table each tombstoned peer was last reached by
	// (a tombstone carries none), so resurrection probes can still address
	// the peer.
	lastTables map[transport.ContextID]*transport.Table
	// sps caches one gossip startpoint per peer origin; spOrder holds the
	// same origins, oldest first, and nothing else.
	sps         map[transport.ContextID]cachedSP
	spOrder     []transport.ContextID
	routesDirty bool
	closed      bool
	stopRun     chan struct{}
}

// cachedSP is a cached startpoint to a peer's gossip endpoint ep. explicit
// marks one built on the record's own table (the bootstrap case) rather than
// resolving through the context's peer table.
type cachedSP struct {
	ep       uint64
	sp       *core.Startpoint
	explicit bool
}

// counters are the agent's cluster.* counters, resolved once at Attach, so
// that counting a message is an atomic add and not a lookup by name.
type counters struct {
	join, leave, leaveUnsent, rounds, probeTx            *metrics.Counter
	selfRejoin, selfRefresh                              *metrics.Counter
	appliedRecord, appliedTombstone, merged              *metrics.Counter
	peerSuspect, peerDead, decodeErrors                  *metrics.Counter
	digestTx, digestRx, deltaTx, deltaRx, pushTx, pushRx *metrics.Counter
	routesInstalled, routesRemoved                       *metrics.Counter
}

func newCounters(s *metrics.Set) counters {
	return counters{
		join:             s.Counter("cluster.join"),
		leave:            s.Counter("cluster.leave"),
		leaveUnsent:      s.Counter("cluster.leave.unsent"),
		rounds:           s.Counter("cluster.rounds"),
		probeTx:          s.Counter("cluster.probe.tx"),
		selfRejoin:       s.Counter("cluster.self.rejoin"),
		selfRefresh:      s.Counter("cluster.self.refresh"),
		appliedRecord:    s.Counter("cluster.applied.record"),
		appliedTombstone: s.Counter("cluster.applied.tombstone"),
		merged:           s.Counter("cluster.merged"),
		peerSuspect:      s.Counter("cluster.peer.suspect"),
		peerDead:         s.Counter("cluster.peer.dead"),
		decodeErrors:     s.Counter("cluster.decode.errors"),
		digestTx:         s.Counter("cluster.digest.tx"),
		digestRx:         s.Counter("cluster.digest.rx"),
		deltaTx:          s.Counter("cluster.delta.tx"),
		deltaRx:          s.Counter("cluster.delta.rx"),
		pushTx:           s.Counter("cluster.push.tx"),
		pushRx:           s.Counter("cluster.push.rx"),
		routesInstalled:  s.Counter("cluster.routes.installed"),
		routesRemoved:    s.Counter("cluster.routes.removed"),
	}
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
		c:          newCounters(ctx.Stats()),
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		failures:   make(map[transport.ContextID]int),
		routed:     make(map[transport.ContextID]routeState),
		lastTables: make(map[transport.ContextID]*transport.Table),
		sps:        make(map[transport.ContextID]cachedSP),
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
	msgBufs.Put(msg)
	n.noteSend(seed, err)
	if err != nil {
		return fmt.Errorf("cluster: join via context %d: %w", seed, err)
	}
	n.c.join.Inc()
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
			n.c.leaveUnsent.Inc()
		}
	}
	n.c.leave.Inc()
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
				n.c.probeTx.Inc()
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
	msgBufs.Put(msg)
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
	n.c.rounds.Inc()
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
		n.c.selfRejoin.Inc()
		return
	}
	if n.ctx.Advertises(n.self.Table) {
		return
	}
	n.self.Seq++
	n.self.Table = transport.NewTable(n.ctx.AdvertisedTable().Entries...)
	n.reg.Merge(n.self)
	n.c.selfRefresh.Inc()
}

// applyRegistryLocked folds registry changes into the live context: applied
// live records refresh the peer's descriptor table (bumping the health
// generation, so in-flight startpoints re-select), tombstones remove it (so
// subsequent sends fail fast with ErrNoTable instead of using a stale
// descriptor), and any change marks mesh routes for recomputation. Only the
// records applied since the last fold are read, and every one of them is
// folded: the registry's generation moves only when a merge changes a record.
// A tombstoned peer's table is kept in lastTables as it is removed: it is the
// table the peer was last reached by, which a resurrection probe needs.
func (n *Node) applyRegistryLocked() {
	recs, gen := n.reg.ChangedSince(n.changed, n.appliedGen)
	n.appliedGen = gen
	for _, rec := range recs {
		if rec.Origin == n.self.Origin {
			continue
		}
		n.routesDirty = true
		if rec.Tombstone {
			if t := n.ctx.PeerTable(rec.Origin); t != nil {
				n.lastTables[rec.Origin] = t
			}
			n.ctx.RemovePeerTable(rec.Origin)
			n.c.appliedTombstone.Inc()
		} else {
			if rec.Table != nil {
				n.ctx.RefreshPeerTable(rec.Table)
			}
			n.c.appliedRecord.Inc()
		}
		n.dropPeerLocked(rec.Origin)
	}
	clear(recs)
	n.changed = recs[:0]
	if n.cfg.Mesh && n.routesDirty {
		n.routesDirty = false
		n.recomputeRoutesLocked()
	}
}

// dropPeerLocked forgets per-peer send state for an origin whose record
// changed and whose peer table has been refreshed or removed: its failure
// count, and a cached gossip startpoint that cannot follow the new table —
// one built on an explicit table, or one whose peer has no peer table left.
// A startpoint that resolves through the peer table is kept: its link
// re-resolves on its next send.
func (n *Node) dropPeerLocked(origin transport.ContextID) {
	delete(n.failures, origin)
	if c, ok := n.sps[origin]; ok && (c.explicit || !n.ctx.HasPeerTable(origin)) {
		n.closeSPLocked(origin)
	}
}

// closeSPLocked closes and forgets the startpoint cached for origin, if any.
// Most origins have none, which one lookup settles; spOrder is at most
// spCacheCap long.
func (n *Node) closeSPLocked(origin transport.ContextID) {
	c, ok := n.sps[origin]
	if !ok {
		return
	}
	c.sp.Close()
	delete(n.sps, origin)
	i := slices.Index(n.spOrder, origin)
	n.spOrder = slices.Delete(n.spOrder, i, i+1)
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
	out := n.peerRecs[:0]
	for _, o := range peers {
		if rec, ok := n.reg.Get(o); ok && !rec.Tombstone {
			out = append(out, rec)
		}
	}
	n.peerRecs = out
	return out
}

// startpointLocked returns a cached Control-class startpoint for a peer's
// gossip endpoint. When the context has a registered peer table for the
// target the startpoint resolves through it lazily — so it follows gossip
// refreshes and mesh route installs automatically — otherwise the record's
// own table is bound directly (the bootstrap case). A full cache evicts the
// startpoint cached longest ago; one cached for the peer's previous gossip
// endpoint is replaced.
func (n *Node) startpointLocked(ctx transport.ContextID, ep uint64, table *transport.Table) *core.Startpoint {
	if c, ok := n.sps[ctx]; ok {
		if c.ep == ep {
			return c.sp
		}
		n.closeSPLocked(ctx)
	}
	var bind *transport.Table
	if !n.ctx.HasPeerTable(ctx) {
		bind = table
	}
	sp := n.ctx.NewStartpointTo(ctx, ep, bind)
	sp.SetClass(core.ClassControl)
	if len(n.spOrder) >= spCacheCap {
		n.closeSPLocked(n.spOrder[0])
	}
	n.sps[ctx] = cachedSP{ep: ep, sp: sp, explicit: bind != nil}
	n.spOrder = append(n.spOrder, ctx)
	return sp
}

// invalidateStartpoint drops a cached startpoint after a send failure, so the
// next message rebinds from current tables.
func (n *Node) invalidateStartpoint(ctx transport.ContextID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.closeSPLocked(ctx)
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
		n.c.peerSuspect.Inc()
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
		n.c.peerDead.Inc()
	}
}

// msgBufs recycles outgoing gossip messages: RSR copies the buffer it sends,
// so a message is free again once its sends have returned.
var msgBufs sync.Pool

// newMsg returns an empty message buffer, recycled from msgBufs or new with
// room for size bytes. The caller hands it back to msgBufs after its sends.
func newMsg(size int) *buffer.Buffer {
	if b, _ := msgBufs.Get().(*buffer.Buffer); b != nil {
		b.Reset()
		return b
	}
	return buffer.New(size)
}

// digestMsgLocked builds a round's digest message — [self record][digest],
// the digest packed straight from the registry at the rotating window cursor
// — and advances the cursor. The self record names the sender and its gossip
// endpoint, so the message needs no other header. One message serves every
// target of the round. A new buffer is sized to the whole message: the
// record batch, the digest's 20 fixed bytes and 24 B per entry.
func (n *Node) digestMsgLocked() *buffer.Buffer {
	recs := []names.Record{n.self}
	b := newMsg(recordsLen(recs) + 20 + 24*min(n.reg.Len(), maxDigest))
	names.EncodeRecords(b, recs)
	n.digestPos = n.reg.AppendDigest(b, n.digestPos, maxDigest)
	return b
}

// sendDigest ships one digest message built by digestMsgLocked.
func (n *Node) sendDigest(sp *core.Startpoint, msg *buffer.Buffer) error {
	err := sp.RSR(handlerDigest, msg)
	if err == nil {
		n.c.digestTx.Inc()
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

// scratch is one handler call's reusable storage: the record batch and the
// digest it reads, and the records and origins it answers with. Each call
// takes its own from scratches, so concurrent deliveries on a threaded
// context never share one, and a message lands in storage an earlier one
// left behind.
type scratch struct {
	batch  names.Batch
	digest names.Digest
	recs   []names.Record
	wants  []transport.ContextID
}

var scratches = sync.Pool{New: func() any { return new(scratch) }}

// release empties s, keeping its storage but no record, and recycles it.
func (s *scratch) release() {
	clear(s.recs)
	s.recs, s.wants = s.recs[:0], s.wants[:0]
	scratches.Put(s)
}

// onDigest answers a digest with the delta the sender lacks and a want-list
// push request for what we lack (rolled into the same delta message). The
// digest's first record is the sender's own: its origin, gossip endpoint and
// table address the reply.
func (n *Node) onDigest(_ *core.Endpoint, b *buffer.Buffer) {
	s := scratches.Get().(*scratch)
	defer s.release()
	if err := n.reg.ReadBatch(b, &s.batch); err != nil || s.batch.Len() == 0 {
		n.c.decodeErrors.Inc()
		return
	}
	if err := s.digest.Decode(b); err != nil {
		n.c.decodeErrors.Inc()
		return
	}
	n.c.digestRx.Inc()
	sender := s.batch.First()
	from := sender.Origin
	n.reg.MergeBatch(&s.batch)
	delta, wants := n.reg.AppendDeltaFor(s.recs, s.wants, s.digest, maxDelta)
	s.recs, s.wants = delta, wants
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
	out := newMsg(16 + recordsLen(delta) + 4 + 8*len(wants))
	defer msgBufs.Put(out)
	out.PutUint64(uint64(n.ctx.ID()))
	out.PutUint64(n.ep.ID())
	names.EncodeRecords(out, delta)
	out.PutUint32(uint32(len(wants)))
	for _, w := range wants {
		out.PutUint64(uint64(w))
	}
	err := sp.RSR(handlerDelta, out)
	n.noteSend(from, err)
	if err == nil {
		n.c.deltaTx.Inc()
	}
}

// onDelta merges the responder's records and answers its want-list with a
// push of the records it asked for.
func (n *Node) onDelta(_ *core.Endpoint, b *buffer.Buffer) {
	s := scratches.Get().(*scratch)
	defer s.release()
	from := transport.ContextID(b.Uint64())
	fromEP := b.Uint64()
	if err := n.reg.ReadBatch(b, &s.batch); err != nil {
		n.c.decodeErrors.Inc()
		return
	}
	nw := int(b.Uint32())
	if b.Err() != nil || nw < 0 || nw*8 > b.Remaining() {
		n.c.decodeErrors.Inc()
		return
	}
	for i := 0; i < nw; i++ {
		s.wants = append(s.wants, transport.ContextID(b.Uint64()))
	}
	if b.Err() != nil {
		n.c.decodeErrors.Inc()
		return
	}
	n.c.deltaRx.Inc()
	if applied := n.reg.MergeBatch(&s.batch); applied > 0 {
		n.c.merged.Add(uint64(applied))
	}
	if len(s.wants) == 0 {
		return
	}
	s.recs = n.reg.RecordsFor(s.recs, s.wants, maxDelta)
	if len(s.recs) == 0 {
		return
	}
	sp := n.replyTo(from, fromEP, nil)
	out := newMsg(recordsLen(s.recs))
	defer msgBufs.Put(out)
	names.EncodeRecords(out, s.recs)
	err := sp.RSR(handlerPush, out)
	n.noteSend(from, err)
	if err == nil {
		n.c.pushTx.Inc()
	}
}

// onPush merges an unsolicited record batch (want-list answers, leave
// notices, join relays).
func (n *Node) onPush(_ *core.Endpoint, b *buffer.Buffer) {
	s := scratches.Get().(*scratch)
	defer s.release()
	if err := n.reg.ReadBatch(b, &s.batch); err != nil {
		n.c.decodeErrors.Inc()
		return
	}
	n.c.pushRx.Inc()
	if applied := n.reg.MergeBatch(&s.batch); applied > 0 {
		n.c.merged.Add(uint64(applied))
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
