// Package cluster bootstraps an in-process "machine": a set of contexts with
// partitions, shared fabrics, exchanged descriptor tables, and optional
// forwarding — the analogue of starting a Nexus computation across SP2
// partitions.
//
// A machine is the substrate the higher layers (the mini-MPI, the coupled
// climate model, the benchmarks) run on. All contexts live in one OS process;
// partition-scoped methods (mpl, myri) connect only contexts that share a
// partition, while globally routable methods (tcp, wan, inproc) cross
// partition boundaries, recreating the paper's two-partition experimental
// configuration on a laptop.
package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nexus/internal/core"
	"nexus/internal/resource"
	"nexus/internal/transport"
	// Standard modules register themselves with transport.Default.
	_ "nexus/internal/simnet"
	_ "nexus/internal/transport/inproc"
	_ "nexus/internal/transport/local"
	_ "nexus/internal/transport/secure"
	_ "nexus/internal/transport/tcp"
	_ "nexus/internal/transport/udp" // udp and rudp
)

// NodeSpec describes one context of the machine.
type NodeSpec struct {
	// Partition names the node's partition.
	Partition string
	// Methods lists the node's communication methods in preference order
	// (overrides the machine Database if both are set).
	Methods []core.MethodConfig
	// Forwarder marks this node a relay in dynamic machines: its gossip
	// record advertises reachability for mesh routing. Ignored for static
	// machines (use ConfigureForwarding there).
	Forwarder bool
}

// Config describes a machine.
type Config struct {
	// Tag isolates this machine's shared fabrics from other machines in the
	// process. Empty generates a unique tag.
	Tag string
	// Nodes lists the machine's contexts.
	Nodes []NodeSpec
	// Database optionally resolves per-node method lists (used for nodes
	// with nil Methods).
	Database *resource.Database
	// Threaded runs RSR handlers in their own goroutines on all nodes.
	Threaded bool
	// Selector overrides the method selection policy on all nodes.
	Selector core.Selector
	// Dynamic switches the machine to gossip-based membership: instead of
	// statically wiring every peer table at boot, each context gets a gossip
	// agent (with this config; Forwarder comes from its NodeSpec) and every
	// node joins through node 0. Tables then spread by anti-entropy —
	// Machine.Settle drives the rounds in tests.
	Dynamic *NodeConfig
}

var machineSeq atomic.Uint64

// Machine is a running set of contexts with exchanged descriptor tables.
type Machine struct {
	tag      string
	contexts []*core.Context
	nodes    []*Node // gossip agents (dynamic machines only)
}

// New boots a machine: creates every context, then exchanges descriptor
// tables so all nodes can build lightweight startpoints and route forwarded
// traffic.
func New(cfg Config) (*Machine, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: machine needs at least one node")
	}
	tag := cfg.Tag
	if tag == "" {
		tag = fmt.Sprintf("machine-%d", machineSeq.Add(1))
	}
	m := &Machine{tag: tag}
	for rank, node := range cfg.Nodes {
		methods := node.Methods
		if methods == nil && cfg.Database != nil {
			methods = cfg.Database.MethodsFor(0, node.Partition)
		}
		methods = injectTag(methods, tag)
		ctx, err := core.NewContext(core.Options{
			Partition: node.Partition,
			Methods:   methods,
			Threaded:  cfg.Threaded,
			Selector:  cfg.Selector,
		})
		if err != nil {
			m.Close()
			return nil, fmt.Errorf("cluster: creating node %d: %w", rank, err)
		}
		m.contexts = append(m.contexts, ctx)
	}
	if cfg.Dynamic != nil {
		for rank, ctx := range m.contexts {
			nc := *cfg.Dynamic
			nc.Forwarder = cfg.Nodes[rank].Forwarder
			if nc.Seed == 0 {
				nc.Seed = int64(rank) + 1
			}
			m.nodes = append(m.nodes, Attach(ctx, nc))
		}
		// Each node joins through the first earlier member it can reach
		// directly (rank 0 for uniform machines; the nearest same-partition
		// member in heterogeneous ones). Anti-entropy merges the views.
		for rank, n := range m.nodes {
			if rank == 0 {
				continue
			}
			var err error
			joined := false
			for s := 0; s < rank && !joined; s++ {
				seedTable, seedEP := m.nodes[s].Bootstrap()
				if err = n.Join(seedTable, seedEP); err == nil {
					joined = true
				}
			}
			if !joined {
				m.Close()
				return nil, fmt.Errorf("cluster: node %d joining: %w", rank, err)
			}
		}
		return m, nil
	}
	m.wire()
	return m, nil
}

// injectTag scopes each method's shared medium — the "exchange" or "fabric"
// parameter its module declares — to the machine, so distinct machines are
// isolated, unless the method's parameters already name one.
func injectTag(methods []core.MethodConfig, tag string) []core.MethodConfig {
	out := make([]core.MethodConfig, len(methods))
	for i, mc := range methods {
		out[i] = mc
		for _, d := range transport.Default.Params(mc.Name) {
			if _, set := mc.Params[d.Key]; !set && (d.Key == "exchange" || d.Key == "fabric") {
				out[i].Params = mc.Params.Merge(transport.Params{d.Key: tag})
			}
		}
	}
	return out
}

// wire registers every node's descriptor table with every other node.
func (m *Machine) wire() {
	for _, c := range m.contexts {
		t := c.AdvertisedTable()
		for _, other := range m.contexts {
			if other != c {
				other.RegisterPeerTable(t)
			}
		}
	}
}

// Tag reports the machine's fabric tag.
func (m *Machine) Tag() string { return m.tag }

// Size reports the number of nodes.
func (m *Machine) Size() int { return len(m.contexts) }

// Context returns the context at the given rank.
func (m *Machine) Context(rank int) *core.Context { return m.contexts[rank] }

// Node returns the gossip agent at the given rank (nil on static machines).
func (m *Machine) Node(rank int) *Node {
	if m.nodes == nil {
		return nil
	}
	return m.nodes[rank]
}

// Settle drives gossip to convergence on a dynamic machine: each round Steps
// every live agent and polls every context until deliveries quiesce, up to
// maxRounds. It returns the number of rounds taken and whether every live
// agent's registry fingerprint agreed (length included) when it stopped.
// Static machines are vacuously settled.
func (m *Machine) Settle(maxRounds int) (rounds int, ok bool) {
	if m.nodes == nil {
		return 0, true
	}
	return Settle(m.nodes, m.contexts, maxRounds)
}

// Ranks lists the ranks whose contexts are in the named partition.
func (m *Machine) Ranks(partition string) []int {
	var out []int
	for i, c := range m.contexts {
		if c.Partition() == partition {
			out = append(out, i)
		}
	}
	return out
}

// ConfigureForwarding designates the node at forwarderRank as the forwarding
// processor for the given method within its partition: every other node in
// that partition advertises the forwarder's address for that method, so
// external senders reach the forwarder, which relays inward over the
// partition's fast method. Nodes in other partitions (and the forwarder's
// own peer-table view) are updated accordingly.
func (m *Machine) ConfigureForwarding(forwarderRank int, method string) error {
	if forwarderRank < 0 || forwarderRank >= len(m.contexts) {
		return fmt.Errorf("cluster: bad forwarder rank %d", forwarderRank)
	}
	fwd := m.contexts[forwarderRank]
	fwdDesc, ok := fwd.AdvertisedTable().Find(method)
	if !ok {
		return fmt.Errorf("cluster: forwarder (rank %d) does not support method %q", forwarderRank, method)
	}
	fwd.EnableForwarding()
	partition := fwd.Partition()
	for rank, c := range m.contexts {
		if rank == forwarderRank || c.Partition() != partition {
			continue
		}
		table := c.AdvertisedTable()
		if !core.RewriteForForwarder(table, method, fwdDesc) {
			entry := fwdDesc.Clone()
			entry.Context = c.ID()
			table.Add(entry)
		}
		c.SetAdvertisedTable(table)
		// Propagate the rewritten table to everyone except the forwarder,
		// which must keep the member's direct (fast-method) route.
		for otherRank, other := range m.contexts {
			if otherRank == forwarderRank || other == c {
				continue
			}
			other.RegisterPeerTable(table)
		}
	}
	return nil
}

// StartPollers launches a background poller on every node, returning a stop
// function.
func (m *Machine) StartPollers(idle time.Duration) (stop func()) {
	stops := make([]func(), len(m.contexts))
	for i, c := range m.contexts {
		stops[i] = c.StartPoller(idle)
	}
	return func() {
		for _, s := range stops {
			s()
		}
	}
}

// Run invokes f concurrently for every rank and waits for all to return,
// collecting the first error.
func (m *Machine) Run(f func(rank int, ctx *core.Context) error) error {
	var wg sync.WaitGroup
	errs := make([]error, len(m.contexts))
	for rank, ctx := range m.contexts {
		wg.Add(1)
		go func(rank int, ctx *core.Context) {
			defer wg.Done()
			errs[rank] = f(rank, ctx)
		}(rank, ctx)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			return fmt.Errorf("cluster: rank %d: %w", rank, err)
		}
	}
	return nil
}

// Close shuts every context down.
func (m *Machine) Close() {
	for _, c := range m.contexts {
		if c != nil {
			c.Close()
		}
	}
}

// Uniform returns a Config with n identical nodes in one partition.
func Uniform(n int, partition string, methods ...core.MethodConfig) Config {
	nodes := make([]NodeSpec, n)
	for i := range nodes {
		nodes[i] = NodeSpec{Partition: partition, Methods: cloneMethodConfigs(methods)}
	}
	return Config{Nodes: nodes}
}

// TwoPartition returns a Config mirroring the paper's case-study layout:
// nA nodes in partition pA and nB nodes in partition pB, all with the same
// method list.
func TwoPartition(nA int, pA string, nB int, pB string, methods ...core.MethodConfig) Config {
	nodes := make([]NodeSpec, 0, nA+nB)
	for i := 0; i < nA; i++ {
		nodes = append(nodes, NodeSpec{Partition: pA, Methods: cloneMethodConfigs(methods)})
	}
	for i := 0; i < nB; i++ {
		nodes = append(nodes, NodeSpec{Partition: pB, Methods: cloneMethodConfigs(methods)})
	}
	return Config{Nodes: nodes}
}

func cloneMethodConfigs(in []core.MethodConfig) []core.MethodConfig {
	out := make([]core.MethodConfig, len(in))
	for i, mc := range in {
		out[i] = mc
		if mc.Params != nil {
			out[i].Params = mc.Params.Clone()
		}
	}
	return out
}
