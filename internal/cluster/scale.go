package cluster

import (
	"fmt"
	"time"

	"nexus/internal/core"
	"nexus/internal/simnet"
	"nexus/internal/transport"
)

// This file is the cluster-scale harness: build N gossiping contexts on a
// zero-latency simnet fabric, drive deterministic gossip rounds, and measure
// convergence through join, churn (leaves, crashes, late joins), and a
// network partition with heal. It lives outside _test.go because the
// repository benchmark's cluster_churn workload (bench/) runs the same
// experiment the tests bound.

// Converged reports whether every live (non-departed) agent holds the same
// registry contents, by fingerprint + length — O(nodes), not O(nodes²×records),
// which is what makes polling it every round affordable at N=1000.
func Converged(nodes []*Node) bool {
	var fp uint64
	ln := -1
	for _, n := range nodes {
		if n == nil || n.Closed() {
			continue
		}
		f, l := n.reg.Fingerprint(), n.reg.Len()
		if ln == -1 {
			fp, ln = f, l
			continue
		}
		if f != fp || l != ln {
			return false
		}
	}
	return true
}

// drainWaves bounds how many poll sweeps one gossip round may take: a digest
// triggers a delta triggers a push, each ripe immediately on a zero-latency
// fabric, so three waves usually empty the mailboxes.
const drainWaves = 10

// drain polls every context until a full sweep delivers nothing (or the wave
// budget runs out). Closed contexts must not be in the slice.
func drain(contexts []*core.Context) {
	for w := 0; w < drainWaves; w++ {
		total := 0
		for _, c := range contexts {
			if c != nil {
				total += c.Poll()
			}
		}
		if total == 0 {
			return
		}
	}
}

// Settle alternates gossip Steps and message drains until every live agent's
// registry agrees, then runs one extra round so the final records are folded
// into each context's peer tables. Returns rounds taken and whether
// convergence was reached within maxRounds.
func Settle(nodes []*Node, contexts []*core.Context, maxRounds int) (rounds int, ok bool) {
	for r := 1; r <= maxRounds; r++ {
		for _, n := range nodes {
			if n != nil && !n.Closed() {
				n.Step()
			}
		}
		drain(contexts)
		if Converged(nodes) {
			for _, n := range nodes {
				if n != nil && !n.Closed() {
					n.Step()
				}
			}
			drain(contexts)
			return r, true
		}
	}
	return maxRounds, false
}

// ScaleSpec parameterises one scale run.
type ScaleSpec struct {
	// N is the number of contexts to boot and join.
	N int
	// MaxRounds bounds each convergence phase.
	MaxRounds int
	// Node is the per-agent config, defaulted as usual.
	Node NodeConfig
	// Churn additionally runs the churn + partition phases.
	Churn bool
}

// ScalePhase is one measured convergence phase of a scale run.
type ScalePhase struct {
	Name      string
	Rounds    int
	Converged bool
	Elapsed   time.Duration
	Members   int // live members agreed on at phase end
}

// scaleMethods builds the single-method (mpl, zero-latency, zero-poll-cost)
// configuration every scale context uses. One partition, one shared fabric:
// the experiment measures the protocol, not the modelled network.
func scaleMethods(tag string) []core.MethodConfig {
	return []core.MethodConfig{{
		Name: "mpl",
		Params: transport.Params{
			"fabric":    tag,
			"latency":   "0s",
			"poll_cost": "0s",
			"bandwidth": "0",
		},
	}}
}

// newScaleContext boots one context + agent on the shared scale fabric.
func newScaleContext(tag string, nc NodeConfig, seq int) (*core.Context, *Node, error) {
	ctx, err := core.NewContext(core.Options{
		Partition: "scale",
		Methods:   scaleMethods(tag),
	})
	if err != nil {
		return nil, nil, err
	}
	if nc.Seed == 0 {
		nc.Seed = int64(seq) + 1
	}
	return ctx, Attach(ctx, nc), nil
}

var scaleSeq int64

// RunScale executes one scale experiment: boot N contexts, join them all
// through a single seed, converge; then (with Churn) leave some, crash some,
// join fresh ones, converge; then partition the fabric in half, let the
// failure detector settle, heal, and converge again. Phases are returned in
// order with their round counts and wall times.
func RunScale(spec ScaleSpec) ([]ScalePhase, error) {
	if spec.N < 2 {
		return nil, fmt.Errorf("cluster: scale run needs N >= 2")
	}
	if spec.MaxRounds <= 0 {
		spec.MaxRounds = 200
	}
	scaleSeq++
	tag := fmt.Sprintf("scale-%d-%d", spec.N, scaleSeq)

	ctxs := make([]*core.Context, 0, spec.N)
	nodes := make([]*Node, 0, spec.N)
	defer func() {
		for _, c := range ctxs {
			if c != nil {
				c.Close()
			}
		}
	}()
	for i := 0; i < spec.N; i++ {
		ctx, n, err := newScaleContext(tag, spec.Node, i)
		if err != nil {
			return nil, err
		}
		ctxs = append(ctxs, ctx)
		nodes = append(nodes, n)
	}
	seedTable, seedEP := nodes[0].Bootstrap()
	for i := 1; i < spec.N; i++ {
		if err := nodes[i].Join(seedTable, seedEP); err != nil {
			return nil, fmt.Errorf("cluster: scale join %d: %w", i, err)
		}
	}

	var phases []ScalePhase
	runPhase := func(name string) {
		start := time.Now()
		rounds, ok := Settle(nodes, ctxs, spec.MaxRounds)
		phases = append(phases, ScalePhase{
			Name:      name,
			Rounds:    rounds,
			Converged: ok,
			Elapsed:   time.Since(start),
			Members:   liveCount(nodes),
		})
	}
	runPhase("join")
	if !spec.Churn {
		return phases, nil
	}

	// Churn: ~2% graceful leaves, ~2% crashes, ~2% fresh joins (at least one
	// of each). Crashed contexts are closed without a tombstone, and the
	// phase does not wait for the failure detector: at N = 200 no context
	// declares one dead (cluster.peer.dead stays 0), so the phase converges
	// with the crashed contexts still live in every registry.
	k := spec.N / 50
	if k < 1 {
		k = 1
	}
	for i := 1; i <= k; i++ { // leaves: ranks 1..k
		nodes[i].Leave()
	}
	drain(ctxs)
	for i := k + 1; i <= 2*k; i++ { // crashes: ranks k+1..2k
		ctxs[i].Close()
		ctxs[i] = nil
		nodes[i] = nil
	}
	for i := 0; i < k; i++ { // fresh joins
		ctx, n, err := newScaleContext(tag, spec.Node, spec.N+i)
		if err != nil {
			return phases, err
		}
		ctxs = append(ctxs, ctx)
		nodes = append(nodes, n)
		if err := n.Join(seedTable, seedEP); err != nil {
			return phases, fmt.Errorf("cluster: churn join: %w", err)
		}
	}
	runPhase("churn")

	// Partition the live contexts in half, run rounds so each side settles
	// (tombstoning the other), heal, and let resurrection probes reconcile.
	faults := simnet.GetOrCreateFabric(tag + "/mpl").Faults()
	var a, b []transport.ContextID
	for i, c := range ctxs {
		if c == nil {
			continue
		}
		if i%2 == 0 {
			a = append(a, c.ID())
		} else {
			b = append(b, c.ID())
		}
	}
	faults.Partition(a, b)
	for r := 0; r < 3*deadAfterFactor; r++ {
		for _, n := range nodes {
			if n != nil && !n.Closed() {
				n.Step()
			}
		}
		drain(ctxs)
	}
	faults.Heal()
	runPhase("partition-heal")
	faults.Reset()
	return phases, nil
}

// liveCount is the number of agents still participating.
func liveCount(nodes []*Node) int {
	c := 0
	for _, n := range nodes {
		if n != nil && !n.Closed() {
			c++
		}
	}
	return c
}
