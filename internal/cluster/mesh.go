package cluster

import (
	"container/heap"
	"math"

	"nexus/internal/core"
	"nexus/internal/names"
	"nexus/internal/transport"
)

// This file generalises the single-forwarder relay of forward.go into a
// cost-aware multi-hop mesh. Every gossip record carries the origin's
// descriptor table; forwarders advertise willingness to relay. From that
// shared state each node independently computes, per unreachable
// destination, the cheapest path through forwarders — edges exist where a
// descriptor of one table reaches one of the other (transport.Reaches, the
// rule every module's Applicable applies), weighted by the advertised
// per-message cost refined with locally observed send/poll costs for the
// first hop. The chosen route installs as a rewritten peer table
// (core.NewRelayRoute): entries name the final destination but dial the
// next hop, so the existing forwarding recursion carries frames hop by hop,
// with the wire relay extension spending hop budget and suppressing loops.
//
// Healing is the composition of two existing mechanisms: the failure
// detector (gossip.go) marks a dead relay suspect and then tombstones it,
// and any registry or suspicion change recomputes routes — so the next send
// re-selects against a table pointing at the surviving relay, exactly the
// way a tripped circuit re-selects among direct descriptors.

// routeState remembers one installed mesh route: the next hop and the hop
// record's version it was computed from, to skip no-op re-installs.
type routeState struct {
	via    transport.ContextID
	viaSeq uint64
}

// edgeBetween reports whether a context advertising table a can reach one
// advertising table b, with the cheapest advertised cost among reaching
// descriptor pairs and the tightest message-size limit of the chosen pair.
// Relay entries are routes, not links, and never form an edge. Cost floors
// at 1 so hop count still matters when nothing is advertised.
func edgeBetween(a, b *transport.Table) (cost int64, maxMsg int, ok bool) {
	if a == nil || b == nil {
		return 0, 0, false
	}
	cost = math.MaxInt64
	for _, da := range a.Entries {
		if da.Attr(transport.AttrRelay) != "" {
			continue
		}
		ra := transport.ReachOf(da)
		for _, db := range b.Entries {
			if !ra.Reaches(db) || db.Attr(transport.AttrRelay) != "" {
				continue
			}
			c := db.Cost()
			if c <= 0 {
				c = 1
			}
			if c < cost {
				cost = c
				maxMsg = db.MaxMessage()
				if am := da.MaxMessage(); am > 0 && (maxMsg == 0 || am < maxMsg) {
					maxMsg = am
				}
				ok = true
			}
		}
	}
	return cost, maxMsg, ok
}

// meshNode is one vertex of the route graph.
type meshNode struct {
	rec   names.Record
	table *transport.Table
}

// pqItem / pq: a minimal priority queue for Dijkstra.
type pqItem struct {
	idx  int
	dist int64
}
type pq []pqItem

func (p pq) Len() int            { return len(p) }
func (p pq) Less(i, j int) bool  { return p[i].dist < p[j].dist }
func (p pq) Swap(i, j int)       { p[i], p[j] = p[j], p[i] }
func (p *pq) Push(x interface{}) { *p = append(*p, x.(pqItem)) }
func (p *pq) Pop() interface{} {
	old := *p
	n := len(old)
	x := old[n-1]
	*p = old[:n-1]
	return x
}

// recomputeRoutesLocked rebuilds this node's mesh routes from the current
// registry: for every live destination not directly reachable, the cheapest
// forwarder path is installed as a relay route; destinations that became
// directly reachable get their direct table restored; destinations with no
// path lose their route (senders then fail fast rather than spray a dead
// relay). Suspect peers are excluded as intermediate hops, which is what
// heals a route whose relay died before the tombstone lands. Caller holds
// n.mu.
func (n *Node) recomputeRoutesLocked() {
	self := meshNode{rec: n.self, table: n.ctx.AdvertisedTable()}
	live := n.reg.Live()
	nodes := make([]meshNode, 0, len(live)+1)
	nodes = append(nodes, self)
	for _, rec := range live {
		if rec.Origin == n.self.Origin {
			continue
		}
		nodes = append(nodes, meshNode{rec: rec, table: rec.Table})
	}

	// Dijkstra from self. Intermediate hops must be forwarders and not
	// suspect; destinations may be anything live.
	const inf = int64(math.MaxInt64)
	dist := make([]int64, len(nodes))
	prev := make([]int, len(nodes))
	bottleneck := make([]int, len(nodes)) // tightest maxMsg along the path (0 = unlimited)
	for i := range dist {
		dist[i] = inf
		prev[i] = -1
	}
	dist[0] = 0
	q := &pq{{idx: 0, dist: 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		u := it.idx
		if it.dist > dist[u] {
			continue
		}
		un := nodes[u]
		// Only self and healthy forwarders extend paths.
		if u != 0 && (!un.rec.Forwarder || n.failures[un.rec.Origin] >= suspectAfter) {
			continue
		}
		for v := range nodes {
			if v == u || v == 0 {
				continue
			}
			cost, mm, ok := edgeBetween(un.table, nodes[v].table)
			if !ok {
				continue
			}
			nd := dist[u] + cost
			if nd < dist[v] {
				dist[v] = nd
				prev[v] = u
				bn := bottleneck[u]
				if mm > 0 && (bn == 0 || mm < bn) {
					bn = mm
				}
				bottleneck[v] = bn
				heap.Push(q, pqItem{idx: v, dist: nd})
			}
		}
	}

	for v := 1; v < len(nodes); v++ {
		dest := nodes[v].rec.Origin
		if _, _, direct := edgeBetween(self.table, nodes[v].table); direct {
			// Reachable in one hop: any installed route yields to the direct
			// table (re-registered so the health generation moves and
			// startpoints drop the routed binding).
			if _, had := n.routed[dest]; had {
				delete(n.routed, dest)
				if nodes[v].table != nil {
					n.ctx.RefreshPeerTable(nodes[v].table)
				}
				n.c.routesRemoved.Inc()
			}
			continue
		}
		if dist[v] == inf || prev[v] <= 0 {
			// No path (directly unreachable and no forwarder chain). Drop any
			// stale route so senders fail fast instead of spraying a dead hop.
			if _, had := n.routed[dest]; had {
				delete(n.routed, dest)
				n.ctx.RemovePeerTable(dest)
				n.c.routesRemoved.Inc()
			}
			continue
		}
		// Walk back to the first hop after self.
		hop := v
		for prev[hop] != 0 {
			hop = prev[hop]
		}
		via := nodes[hop].rec
		cur, had := n.routed[dest]
		if had && cur.via == via.Origin && cur.viaSeq == via.Seq {
			continue
		}
		route := core.NewRelayRoute(dest, via.Origin, via.Table, bottleneck[v])
		if route.Len() == 0 {
			continue
		}
		n.ctx.RefreshPeerTable(route)
		n.routed[dest] = routeState{via: via.Origin, viaSeq: via.Seq}
		n.c.routesInstalled.Inc()
	}
}

// RouteVia reports the installed mesh next hop for a destination (0 when the
// destination is directly reachable or unknown).
func (n *Node) RouteVia(dest transport.ContextID) transport.ContextID {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.routed[dest].via
}
