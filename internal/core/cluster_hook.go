package core

import (
	"time"

	"nexus/internal/obsv"
)

// This file is core's half of the cluster membership layer's attachment
// surface, mirroring rpc_hook.go: core knows nothing about gossip rounds or
// route computation — it only carries the configuration knobs, an opaque
// state slot for the attached agent, the membership view Observe folds into
// snapshots, and the hop budget stamped on mesh-routed frames. The layer
// itself lives in internal/cluster and is attached by the facade.

// DefaultRelayTTL is the hop budget stamped on mesh-routed frames when
// ClusterConfig.RelayTTL is unset: generous against any plausible route
// depth, small enough that a routing loop extinguishes within a handful of
// relays.
const DefaultRelayTTL = 8

// ClusterConfig configures the dynamic membership layer (internal/cluster).
// The zero value leaves it off.
type ClusterConfig struct {
	// Enabled turns the layer on: the facade attaches a gossip agent to the
	// context at construction.
	Enabled bool
	// Forwarder advertises this context as a relay in gossip and enables
	// frame forwarding, so mesh routes may pass through it.
	Forwarder bool
	// Mesh enables cost-aware multi-hop route computation: peers with no
	// directly applicable method are reached through advertised forwarders.
	Mesh bool
	// Fanout is how many peers each gossip round contacts (default 2).
	Fanout int
	// Interval is the background agent's round period (default 50ms).
	Interval time.Duration
	// RelayTTL is the hop budget stamped on mesh-routed frames
	// (default DefaultRelayTTL).
	RelayTTL int
	// Seed fixes the agent's peer-sampling randomness for deterministic
	// tests (0 derives one from the context id).
	Seed int64
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
