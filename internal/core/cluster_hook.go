package core

import "nexus/internal/obsv"

// This file is core's half of the cluster membership layer's attachment
// surface, mirroring rpc_hook.go: core knows nothing about gossip rounds or
// route computation and has no option for them — it only carries an opaque
// state slot for the attached agent, the membership view Observe folds into
// snapshots, and the hop budget stamped on mesh-routed frames. The layer
// itself lives in internal/cluster and is attached with cluster.Attach.

// DefaultRelayTTL is the hop budget stamped on mesh-routed frames: generous
// against any plausible route depth, small enough that a routing loop
// extinguishes within a handful of relays.
const DefaultRelayTTL = 8

// SetRelayTTL overrides the hop budget stamped on c's mesh-routed frames;
// values outside 1..255 are ignored. It is a function rather than a method so
// the facade, which aliases Context, does not expose it: it exists for the
// cluster layer's tests to build a route longer than the budget, and must be
// called before c sends anything (the send path reads the budget unlocked).
func SetRelayTTL(c *Context, ttl int) {
	if ttl > 0 && ttl < 256 {
		c.relayTTL = byte(ttl)
	}
}

// SetClusterState attaches an opaque cluster-layer runtime to the context,
// retrievable with ClusterState. The cluster package stores its agent here
// so facade helpers can find it without core importing the layer.
func (c *Context) SetClusterState(v any) { c.clusterState.Store(v) }

// ClusterState returns the value stored by SetClusterState (nil if none).
func (c *Context) ClusterState() any { return c.clusterState.Load() }

// SetClusterView installs the membership-view provider Observe calls when
// building snapshots; /debug/nexusz renders the rows as the membership
// table. A nil provider detaches it.
func (c *Context) SetClusterView(fn func() []obsv.ClusterMember) {
	c.clusterView.Store(fn)
}
