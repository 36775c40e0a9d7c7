package main

import (
	"fmt"
	"time"

	"nexus"
	"nexus/internal/cluster"
	"nexus/internal/core"
	"nexus/internal/transport"
)

// This file holds the two run-to-completion workloads: cluster_churn (gossip
// membership through join, churn and partition-heal on a simulated fabric)
// and climate_coupled (the paper's coupled model over the mini-MPI on a
// two-partition machine with asymmetric poll costs).

// clusterN is the number of contexts in a cluster_churn repetition. It is
// sized so that five repetitions fit the benchmark's run length on two
// cores (a repetition takes about 1.6 s at 200, about 6 s at 400).
const clusterN = 200

// clusterWarmN is the size of the warm-up run that grows the heap and heats
// the gossip code paths before the first measured repetition.
const clusterWarmN = 100

// clusterImpl has no generated input: cluster.RunScale seeds every agent's
// peer sampling from its boot order, so the run seed does not enter. That
// is deliberate — rounds-to-converge moves in whole rounds (about a tenth of
// the total each), so a seed-dependent round count would swamp the bound.
type clusterImpl struct{}

func newClusterChurn(*benchEnv) (workloadImpl, error) { return &clusterImpl{}, nil }

func (w *clusterImpl) warmup() error {
	_, err := cluster.RunScale(cluster.ScaleSpec{N: clusterWarmN, Churn: true})
	return err
}

func (w *clusterImpl) build() (instance, time.Duration, error) { return &clusterInst{}, 0, nil }

// clusterInst runs one scale experiment per run call. The contexts live
// entirely inside cluster.RunScale, so set-up time (booting and joining N
// contexts, the churn re-joins, the partition rounds) is the part of the
// call not spent in a convergence phase, and is reported through repOut.
type clusterInst struct{}

func (in *clusterInst) run(_ time.Duration, ts *traceSet) (repOut, error) {
	if ts != nil {
		return in.runTraced(ts)
	}
	start := time.Now()
	phases, err := cluster.RunScale(cluster.ScaleSpec{N: clusterN, Churn: true})
	total := time.Since(start)
	if err != nil {
		return repOut{}, err
	}
	out := repOut{layer: make(map[string]float64)}
	for _, p := range phases {
		out.attempted++
		if !p.Converged {
			out.failed++
		}
		out.elapsed += p.Elapsed
		out.lat = append(out.lat, uint32(min(p.Elapsed, time.Duration(^uint32(0)))))
		switch p.Name {
		case "join":
			out.layer["cluster.rounds_join"] = float64(p.Rounds)
		case "churn":
			out.layer["cluster.rounds_churn"] = float64(p.Rounds)
		case "partition-heal":
			out.layer["cluster.rounds_heal"] = float64(p.Rounds)
		}
	}
	if len(phases) != 3 {
		return out, fmt.Errorf("cluster.RunScale returned %d phases, want 3", len(phases))
	}
	out.setup = total - out.elapsed
	return out, nil
}

// runTraced replays the join phase with the harness driving the rounds
// itself through the cluster package's public pieces (Attach, Join, Step,
// Converged), so that each agent Step and each drain sweep gets a span and
// the contexts' message counters can be read. RunScale keeps its contexts
// to itself, which is why the traced half cannot use it.
func (in *clusterInst) runTraced(ts *traceSet) (repOut, error) {
	tr := ts.get(0)
	setupStart := time.Now()
	tag := fmt.Sprintf("bench-trace-%d", setupStart.UnixNano())
	ctxs := make([]*core.Context, 0, clusterN)
	nodes := make([]*cluster.Node, 0, clusterN)
	defer func() {
		for _, c := range ctxs {
			c.Close()
		}
	}()
	for i := 0; i < clusterN; i++ {
		ctx, err := core.NewContext(core.Options{
			Partition: "scale",
			Methods: []core.MethodConfig{{Name: "mpl", Params: transport.Params{
				"fabric": tag, "latency": "0s", "poll_cost": "0s", "bandwidth": "0",
			}}},
		})
		if err != nil {
			return repOut{}, err
		}
		ctxs = append(ctxs, ctx)
		nodes = append(nodes, cluster.Attach(ctx, cluster.NodeConfig{Seed: int64(i) + 1}))
	}
	seedTable, seedEP := nodes[0].Bootstrap()
	for i := 1; i < clusterN; i++ {
		if err := nodes[i].Join(seedTable, seedEP); err != nil {
			return repOut{}, fmt.Errorf("join %d: %w", i, err)
		}
	}
	out := repOut{setup: time.Since(setupStart), attempted: 1, layer: make(map[string]float64)}

	const maxRounds = 200
	start := time.Now()
	rounds := 0
	for !cluster.Converged(nodes) && rounds < maxRounds {
		rounds++
		for _, n := range nodes {
			tr.begin(spClusterStep, uint64(rounds))
			n.Step()
			tr.end()
		}
		tr.begin(spClusterDrain, uint64(rounds))
		for wave := 0; wave < 10; wave++ {
			delivered := 0
			for _, c := range ctxs {
				delivered += c.Poll()
			}
			if delivered == 0 {
				break
			}
		}
		tr.end()
	}
	out.elapsed = time.Since(start)
	if !cluster.Converged(nodes) {
		out.failed = 1
	}
	out.lat = []uint32{uint32(min(out.elapsed, time.Duration(^uint32(0))))}
	out.counters = sumCounters(ctxs...)
	if rounds > 0 {
		out.layer["cluster.msgs_per_node_round"] = float64(out.counters["rsr.sent"]) / float64(clusterN*rounds)
	}
	return out, nil
}

func (in *clusterInst) counters() map[string]uint64 { return nil }
func (in *clusterInst) close()                      {}

// Coupled-model parameters: two atmosphere ranks and one ocean rank on a
// two-partition machine, a cheap fast method inside partitions and an
// expensive wide-area method between them.
const (
	climateAtmoRanks  = 2
	climateOceanRanks = 1
	// climateSteps sizes one run at roughly half a second here.
	climateSteps = 2048
)

var (
	climateFast = nexus.Params{"latency": "5us", "poll_cost": "3us", "bandwidth": "2e9"}
	climateWide = nexus.Params{"latency": "300us", "poll_cost": "60us", "bandwidth": "5e7"}
	// climateRef is the wide-area method with its modelled costs zeroed: the
	// single-method machine the reference checksums are computed on.
	climateRef = nexus.Params{"latency": "0s", "poll_cost": "0s", "bandwidth": "0"}
)

func climateConfig() nexus.ClimateConfig {
	return nexus.ClimateConfig{
		AtmoRanks: climateAtmoRanks, OceanRanks: climateOceanRanks,
		Steps: climateSteps, CoupleEvery: 2, Load: 0,
	}
}

// climateImpl holds the reference checksums. The model's result depends on
// its Config only, never on the communication methods, so a run over one
// zero-cost method is the ground truth for the multimethod runs. The model
// has no random input; the seed does not enter.
type climateImpl struct {
	env  *benchEnv
	want nexus.ClimateStats
}

func newClimateCoupled(env *benchEnv) (workloadImpl, error) {
	w := &climateImpl{env: env}
	in, _, err := w.buildOn(false, nexus.MethodConfig{Name: "wan", Params: climateRef})
	if err != nil {
		return nil, err
	}
	defer in.close()
	st, err := nexus.RunClimate(in.world, climateConfig())
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	w.want = st
	return w, nil
}

// warmup runs the model twice: the first runs in a process are several
// times slower than the steady state.
func (w *climateImpl) warmup() error {
	for i := 0; i < 2; i++ {
		in, _, err := w.build()
		if err != nil {
			return err
		}
		_, err = in.run(0, nil)
		in.close()
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *climateImpl) build() (instance, time.Duration, error) {
	return w.buildOn(true,
		nexus.MethodConfig{Name: "mpl", Params: climateFast},
		nexus.MethodConfig{Name: "wan", Params: climateWide})
}

// buildOn boots the machine and the MPI world over it. Nothing in that waits
// on another goroutine, so it takes no settle pause: all of it is set-up.
func (w *climateImpl) buildOn(autoSkip bool, methods ...nexus.MethodConfig) (*climateInst, time.Duration, error) {
	start := time.Now()
	machine, err := nexus.NewMachine(nexus.TwoPartitionMachine(
		climateAtmoRanks, "atmosphere", climateOceanRanks, "ocean", methods...))
	if err != nil {
		return nil, 0, err
	}
	if autoSkip {
		for r := 0; r < machine.Size(); r++ {
			machine.Context(r).AutoSkipPoll()
		}
	}
	world, err := nexus.NewWorld(machine)
	if err != nil {
		machine.Close()
		return nil, 0, err
	}
	world.SetTimeout(time.Minute)
	return &climateInst{impl: w, machine: machine, world: world}, time.Since(start), nil
}

type climateInst struct {
	impl    *climateImpl
	machine *nexus.Machine
	world   *nexus.World
}

// run executes the coupled model once; an op is one atmosphere step. The
// ranks run inside climate.Run, so per-step latency is the run's wall time
// over its steps, and a wrong checksum fails every step of the run.
func (in *climateInst) run(_ time.Duration, ts *traceSet) (repOut, error) {
	tr := ts.get(0)
	tr.begin(spAppRun, 0)
	st, err := nexus.RunClimate(in.world, climateConfig())
	tr.end()
	if err != nil {
		return repOut{}, err
	}
	out := repOut{attempted: uint64(st.Steps), elapsed: st.Elapsed}
	want := in.impl.want
	if st.AtmoChecksum != want.AtmoChecksum || st.OceanChecksum != want.OceanChecksum {
		out.failed = out.attempted
		in.impl.env.note("climate_coupled: checksums %.9f/%.9f, reference %.9f/%.9f",
			st.AtmoChecksum, st.OceanChecksum, want.AtmoChecksum, want.OceanChecksum)
	}
	out.lat = []uint32{uint32(min(st.Elapsed/time.Duration(st.Steps), time.Duration(^uint32(0))))}
	return out, nil
}

func (in *climateInst) counters() map[string]uint64 {
	ctxs := make([]*nexus.Context, in.machine.Size())
	for r := range ctxs {
		ctxs[r] = in.machine.Context(r)
	}
	return sumCounters(ctxs...)
}

func (in *climateInst) close() { in.machine.Close() }
