package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// This file is the measurement harness: it builds a workload instance per
// repetition, warms it, brackets the timed window with CPU, allocation and
// counter snapshots, and reduces the per-repetition values to medians.

// benchEnv is what a workload gets from the harness.
type benchEnv struct {
	seed int64
	// tmpDir is a scratch directory under the output directory; the
	// shared-memory transport keeps its segments and FIFOs there so the
	// benchmark writes nothing outside its checkout.
	tmpDir string
	notes  []string
}

func (e *benchEnv) note(format string, args ...any) {
	n := fmt.Sprintf(format, args...)
	if !slices.Contains(e.notes, n) {
		e.notes = append(e.notes, n)
	}
}

// instance is one repetition's live set-up: contexts, links, handlers.
type instance interface {
	// run drives load for about d (timed workloads) or once to completion,
	// recording spans on ts when it is non-nil.
	run(d time.Duration, ts *traceSet) (repOut, error)
	// counters sums Context.Stats() over the instance's contexts.
	counters() map[string]uint64
	close()
}

// repOut is what one timed window produced.
type repOut struct {
	attempted uint64
	failed    uint64 // failed, refused, expired or wrong
	payload   uint64 // verified payload bytes delivered (0: the workload does not account bytes)
	elapsed   time.Duration
	lat       []uint32 // per-op latency in ns; owned by the workload, valid until its next run
	// setup is set-up time spent inside run, for workloads whose contexts
	// are built by the library call being measured (cluster.RunScale).
	setup time.Duration
	// layer holds per-layer values only the workload can compute, and
	// counters the Context.Stats() deltas of contexts that exist only
	// inside run.
	layer    map[string]float64
	counters map[string]uint64
}

// workloadImpl builds one repetition's instance. Inputs are generated when
// the impl is made, once per process; build reports how long set-up took,
// which is what setup_s is made of.
type workloadImpl interface {
	build() (instance, time.Duration, error)
}

// settlePause is an uncounted pause a build takes between creating its
// contexts and using them. Every context with a socket method starts a
// reactor goroutine that blocks in a raw epoll_wait, and the Go scheduler
// leaves the processor that goroutine was on attached to it until its
// monitor thread next looks — up to 20 ms on an otherwise quiet process.
// With two processors, whatever the build does next (a dial, a first call)
// then stalls for 10–20 ms or not, at random, and set-up time read 1–40 ms
// from one build to the next. The pause outlasts the monitor's period, so
// what is counted is the work set-up does, not that lottery.
const settlePause = 25 * time.Millisecond

// setupClock times a build, leaving out its settle pause.
type setupClock struct {
	counted time.Duration
	since   time.Time
}

func startSetup() *setupClock { return &setupClock{since: time.Now()} }

func (c *setupClock) settle() {
	c.counted += time.Since(c.since)
	time.Sleep(settlePause)
	c.since = time.Now()
}

func (c *setupClock) done() time.Duration { return c.counted + time.Since(c.since) }

// warmer is implemented by run-to-completion workloads that need the
// process warmed (heap grown, code paths hot) before the first repetition.
type warmer interface {
	warmup() error
}

// workloadDef is one named workload.
type workloadDef struct {
	name string
	why  string
	// toCompletion workloads run a fixed problem per repetition and report
	// time_to_solution_s; the others run a timed window.
	toCompletion bool
	// tracedDiffers marks a workload whose traced run is not the same
	// experiment as its untraced run (cluster_churn: the library call keeps
	// its contexts to itself, so the harness drives the join phase on its
	// own), which makes an overhead ratio between the two meaningless.
	tracedDiffers bool
	minReps       int
	make          func(env *benchEnv) (workloadImpl, error)
	probes        []string // layer probes attached to this workload's traced run
}

// traceSet hands each recording goroutine its own tracer.
type traceSet struct {
	epoch time.Time
	mu    sync.Mutex
	ts    []*tracer
}

func newTraceSet() *traceSet { return &traceSet{epoch: time.Now()} }

// get returns goroutine i's tracer, or nil when the set is nil (untraced).
func (s *traceSet) get(i int) *tracer {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.ts) <= i {
		s.ts = append(s.ts, nil)
	}
	if s.ts[i] == nil {
		s.ts[i] = newTracer(s.epoch, i)
	}
	return s.ts[i]
}

// repMeasure is one repetition with everything measured around it.
type repMeasure struct {
	out      repOut
	setup    time.Duration
	cpu      time.Duration
	mallocs  uint64
	gcCycles uint32
	gcPause  time.Duration
	counters map[string]uint64 // deltas over the timed window
	samples  int
	p50, p99 float64 // µs; p99 is 0 below 1000 samples
}

// runLimit bounds one timed window beyond its nominal length; a workload
// still running after it has lost a message or deadlocked.
const runLimit = 90 * time.Second

// warmFraction of the window is spent warming a timed instance (dials done,
// pools filled, reactor windows hot) before the measured window starts.
const warmFraction = 0.15

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measureRep builds an instance, warms it, and measures one window.
func measureRep(def *workloadDef, impl workloadImpl, window time.Duration, ts *traceSet) (repMeasure, error) {
	var m repMeasure
	inst, setup, err := impl.build()
	if err != nil {
		return m, fmt.Errorf("%s: set-up: %w", def.name, err)
	}
	m.setup = setup
	defer inst.close()
	if !def.toCompletion {
		warm := time.Duration(float64(window) * warmFraction)
		if _, err := runGuarded(inst, warm, nil); err != nil {
			return m, fmt.Errorf("%s: warm-up: %w", def.name, err)
		}
	}
	// Start every window from a collected heap so where a GC cycle falls
	// does not depend on what the previous repetition left behind.
	runtime.GC()
	c0 := inst.counters()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	out, err := runGuarded(inst, window, ts)
	cpu1 := cpuTime()
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return m, fmt.Errorf("%s: %w", def.name, err)
	}
	c1 := inst.counters()
	m.out = out
	m.setup += out.setup
	m.cpu = cpu1 - cpu0
	m.mallocs = ms1.Mallocs - ms0.Mallocs
	m.gcCycles = ms1.NumGC - ms0.NumGC
	m.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	m.counters = out.counters
	if m.counters == nil {
		m.counters = make(map[string]uint64, len(c1))
		for k, v := range c1 {
			m.counters[k] = v - c0[k]
		}
	}
	// Reduce the latency samples now: the slice belongs to the workload and
	// is reused by the next repetition.
	m.samples = len(out.lat)
	if m.samples > 0 {
		slices.Sort(out.lat)
		m.p50 = float64(percentile(out.lat, 50)) / 1e3
		if m.samples >= 1000 {
			m.p99 = float64(percentile(out.lat, 99)) / 1e3
		}
	}
	m.out.lat = nil
	return m, nil
}

// runGuarded runs one window on its own goroutine and gives up on it after
// runLimit, so a lost message fails the run instead of hanging it.
func runGuarded(inst instance, d time.Duration, ts *traceSet) (repOut, error) {
	type result struct {
		out repOut
		err error
	}
	done := make(chan result, 1)
	go func() {
		out, err := inst.run(d, ts)
		done <- result{out, err}
	}()
	timer := time.NewTimer(d + runLimit)
	defer timer.Stop()
	select {
	case r := <-done:
		return r.out, r.err
	case <-timer.C:
		return repOut{}, fmt.Errorf("window of %v still running after %v: an operation never completed", d, d+runLimit)
	}
}

// Set-up is timed more often than a run has repetitions, and reported as
// the lower decile of the samples rather than their median. It is a
// millisecond or so of work plus, per connection it opens, anything from
// nothing to 10 ms of waiting for the Go runtime's network poller: while
// pollers spin (rpc_mix's server does, from the moment it is built) no
// processor goes idle, and the runtime then looks at the network only from
// its monitor thread, every 10 ms. Where in that period a dial lands is
// chance, so the median of rpc_mix's set-up read anywhere from 2 to 15 ms
// from run to run, while the lower decile — the builds whose dials were
// answered at once — moves with the work set-up does and little else.
const (
	setupSamples  = 40
	setupBudget   = 2 * time.Second
	setupQuantile = 10
)

// sampleSetups builds and closes instances and returns how long each build
// took. A build that reports no set-up time at all does its set-up inside
// run (cluster_churn) and has nothing to sample here.
func sampleSetups(def *workloadDef, impl workloadImpl) ([]time.Duration, error) {
	var out []time.Duration
	start := time.Now()
	for len(out) < setupSamples && time.Since(start) < setupBudget {
		inst, setup, err := impl.build()
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		inst.close()
		if setup == 0 {
			return nil, nil
		}
		out = append(out, setup)
	}
	return out, nil
}

// measureReps runs repetitions of a workload: at least minReps, and for
// run-to-completion workloads as many more as fit in total.
func measureReps(def *workloadDef, impl workloadImpl, total time.Duration, minReps int, ts *traceSet) ([]repMeasure, error) {
	var reps []repMeasure
	if def.toCompletion {
		var spent time.Duration
		for len(reps) < minReps || spent < total {
			m, err := measureRep(def, impl, 0, ts)
			if err != nil {
				return nil, err
			}
			reps = append(reps, m)
			spent += m.out.elapsed + m.setup
		}
		return reps, nil
	}
	window := total / time.Duration(minReps)
	for i := 0; i < minReps; i++ {
		m, err := measureRep(def, impl, window, ts)
		if err != nil {
			return nil, err
		}
		reps = append(reps, m)
	}
	return reps, nil
}

// metricValue is one reported metric: the median of its per-repetition
// values, with their range.
type metricValue struct {
	Unit   string    `json:"unit"`
	Value  float64   `json:"value"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Values []float64 `json:"values,omitempty"`
	// Samples is the median number of latency samples per repetition behind
	// a percentile.
	Samples int `json:"samples,omitempty"`
}

// newMetric reduces a non-empty list of per-repetition values.
func newMetric(unit string, values []float64) metricValue {
	return metricValue{Unit: unit, Value: median(values), Min: slices.Min(values), Max: slices.Max(values), Values: values}
}

// endToEnd reduces repetitions to the end-to-end metrics that apply.
func endToEnd(def *workloadDef, reps []repMeasure, setups []time.Duration) (metrics map[string]metricValue, attempted, failed uint64) {
	per := make(map[string][]float64)
	for _, d := range setups {
		per["setup_s"] = append(per["setup_s"], d.Seconds())
	}
	var samples []float64
	for _, r := range reps {
		attempted += r.out.attempted
		failed += r.out.failed
		ops := float64(r.out.attempted - r.out.failed)
		sec := r.out.elapsed.Seconds()
		per["setup_s"] = append(per["setup_s"], r.setup.Seconds())
		per["failed_frac"] = append(per["failed_frac"], failedFrac(r.out.failed, r.out.attempted))
		if ops <= 0 || sec <= 0 {
			continue
		}
		per["ops_per_s"] = append(per["ops_per_s"], ops/sec)
		if r.out.payload > 0 {
			per["goodput_mb_s"] = append(per["goodput_mb_s"], float64(r.out.payload)/1e6/sec)
		}
		if r.samples > 0 {
			per["latency_p50_us"] = append(per["latency_p50_us"], r.p50)
			samples = append(samples, float64(r.samples))
		}
		if r.p99 > 0 {
			per["latency_p99_us"] = append(per["latency_p99_us"], r.p99)
		}
		if def.toCompletion {
			per["time_to_solution_s"] = append(per["time_to_solution_s"], sec)
		}
		per["cpu_us_per_op"] = append(per["cpu_us_per_op"], float64(r.cpu.Microseconds())/ops)
		per["allocs_per_op"] = append(per["allocs_per_op"], float64(r.mallocs)/ops)
	}
	metrics = make(map[string]metricValue)
	for _, d := range e2eMetrics {
		if vals := per[d.Name]; len(vals) > 0 {
			mv := newMetric(d.Unit, vals)
			if d.Name == "setup_s" {
				sorted := slices.Clone(vals)
				slices.Sort(sorted)
				mv.Value = percentile(sorted, setupQuantile)
			}
			if strings.HasPrefix(d.Name, "latency_") {
				mv.Samples = int(median(samples))
			}
			metrics[d.Name] = mv
		}
	}
	return metrics, attempted, failed
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// layerFromTrace turns the traced repetitions into per-layer metrics:
// span totals become per-call times, counter deltas become per-op counts.
// A metric whose inputs do not exist for this workload (no span of that
// name, no such counter) is left out.
func layerFromTrace(reps []repMeasure, totals [nSpanNames]spanTotals) map[string]float64 {
	out := make(map[string]float64)
	var ops, payload float64
	counters := make(map[string]uint64)
	var gcCycles uint32
	var gcPause time.Duration
	for _, r := range reps {
		ops += float64(r.out.attempted - r.out.failed)
		payload += float64(r.out.payload)
		for k, v := range r.counters {
			counters[k] += v
		}
		for k, v := range r.out.layer {
			out[k] = v // workload-computed values repeat across repetitions
		}
		gcCycles += r.gcCycles
		gcPause += r.gcPause
	}
	if ops == 0 {
		return out
	}
	perCount := func(name string, sp spanName, ns int64) {
		if c := totals[sp].Count; c > 0 {
			out[name] = float64(ns) / float64(c)
		}
	}
	perCount("buffer.pack_ns", spBufferPack, totals[spBufferPack].Self)
	perCount("core.rsr_ns", spCoreRSR, totals[spCoreRSR].Total)
	perCount("core.handler_ns", spCoreHandler, totals[spCoreHandler].Self)
	perCount("rpc.call_ns", spRPCCall, totals[spRPCCall].Total)
	perCount("rpc.await_ns", spRPCAwait, totals[spRPCAwait].Total)
	perCount("cluster.step_ns", spClusterStep, totals[spClusterStep].Total)
	if w := totals[spCoreHandler].Waited; w > 0 {
		perCount("core.detect_wait_ns", spCoreHandler, w)
	}
	if p := totals[spCorePoll]; p.Calls > 0 {
		out["core.poll_ns"] = float64(p.Self) / float64(p.Calls)
		out["core.poll_calls_per_op"] = float64(p.Calls) / ops
		out["core.poll_empty_frac"] = float64(p.Empty) / float64(p.Calls)
	}
	perOp := func(name, counter string) {
		if v, ok := counters[counter]; ok {
			out[name] = float64(v) / ops
		}
	}
	count := func(name, counter string) {
		if v, ok := counters[counter]; ok {
			out[name] = float64(v)
		}
	}
	perOp("core.rsr_count", "rsr.sent")
	perOp("core.poll_passes_per_op", "poll.passes")
	perOp("simnet.wan_polls_per_op", "poll.wan")
	if sent, ok := counters["bytes.sent"]; ok && payload > 0 {
		out["wire.overhead_bytes_per_op"] = (float64(sent) - payload) / ops
	}
	count("rpc.pulls", "rpc.pulls")
	count("rpc.deadline_count", "rpc.deadline")
	count("dispatch.queue_full", "dispatch.queue_full")
	count("dispatch.inline", "dispatch.inline")
	if v, ok := counters["flow.grants.sent"]; ok {
		out["flow.grants_per_kop"] = float64(v) / (ops / 1000)
	}
	count("flow.probes_sent", "flow.probes.sent")
	if msgs := counters["frag.messages.sent"]; msgs > 0 {
		out["frag.fragments_per_msg"] = float64(counters["frag.fragments.sent"]) / float64(msgs)
	}
	count("frag.dropped", "frag.dropped")
	count("frag.expired", "frag.expired")
	count("frag.duplicates", "frag.duplicates")
	count("failover.resends", "failover.resends")
	if _, ok := counters["rsr.shed.normal"]; ok {
		out["rsr.shed"] = float64(counters["rsr.shed.control"] + counters["rsr.shed.normal"] + counters["rsr.shed.bulk"])
	}
	out["gc.cycles"] = float64(gcCycles)
	out["gc.pause_ms"] = float64(gcPause.Microseconds()) / 1e3
	return out
}

// envInfo records where the numbers were taken.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Link       string `json:"link"`
	Generators string `json:"generators"`
}

func currentEnv() envInfo {
	return envInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Link:       "host loopback and shared memory, not a real link",
		Generators: "one process, at most min(nproc, 2) load-generating goroutines",
	}
}

// runDetail is everything one child run reports; the parent assembles
// result.json from these, and the driver line is derived from it.
type runDetail struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   int                    `json:"seconds"`
	Trace     int                    `json:"trace"`
	Env       envInfo                `json:"env"`
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Reps      int                    `json:"repetitions"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Skipped names probes that could not run here, with the reason; they
	// are reported as skipped, never as zero.
	Skipped map[string]string `json:"skipped,omitempty"`
	Notes   []string          `json:"notes,omitempty"`
}

// runUntraced measures a workload's end-to-end metrics.
func runUntraced(def *workloadDef, env *benchEnv, seconds int) (*runDetail, error) {
	impl, err := def.make(env)
	if err != nil {
		return nil, fmt.Errorf("%s: generating inputs: %w", def.name, err)
	}
	if w, ok := impl.(warmer); ok {
		if err := w.warmup(); err != nil {
			return nil, fmt.Errorf("%s: warm-up: %w", def.name, err)
		}
	}
	reps, err := measureReps(def, impl, time.Duration(seconds)*time.Second, def.minReps, nil)
	if err != nil {
		return nil, err
	}
	setups, err := sampleSetups(def, impl)
	if err != nil {
		return nil, err
	}
	metrics, attempted, failed := endToEnd(def, reps, setups)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	metrics["peak_rss_mb"] = newMetric("MB", []float64{rss})
	return &runDetail{
		Workload: def.name, Seed: env.seed, Seconds: seconds, Trace: 0, Env: currentEnv(),
		Correct: failed == 0, Attempted: attempted, Failed: failed, Reps: len(reps),
		Metrics: metrics, Notes: env.notes,
	}, nil
}

// tracedReps is how many repetitions the traced run spends on each of its
// untraced and traced halves.
const tracedReps = 2

// runTraced measures a workload's per-layer metrics: a short untraced
// measurement (the base for trace.overhead_frac and the source of the
// "e2e." entries), the same again with spans recorded, then the layer
// probes attached to the workload.
func runTraced(def *workloadDef, env *benchEnv, seconds int) (*runDetail, *workloadTrace, error) {
	impl, err := def.make(env)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: generating inputs: %w", def.name, err)
	}
	if w, ok := impl.(warmer); ok {
		if err := w.warmup(); err != nil {
			return nil, nil, fmt.Errorf("%s: warm-up: %w", def.name, err)
		}
	}
	// A third of the time each for the untraced half, the traced half, and
	// the probes.
	half := time.Duration(seconds) * time.Second / 3
	base, err := measureReps(def, impl, half, tracedReps, nil)
	if err != nil {
		return nil, nil, err
	}
	ts := newTraceSet()
	traced, err := measureReps(def, impl, half, tracedReps, ts)
	if err != nil {
		return nil, nil, err
	}
	baseE2E, attempted, failed := endToEnd(def, base, nil)
	tracedE2E, a2, f2 := endToEnd(def, traced, nil)
	attempted += a2
	failed += f2

	metrics := make(map[string]metricValue)
	for _, m := range e2eMetrics {
		if mv, ok := baseE2E[m.Name]; ok && !m.Gated {
			metrics["e2e."+m.Name] = mv
		}
	}
	totals, spans := mergeTracers(ts.ts...)
	for name, v := range layerFromTrace(traced, totals) {
		metrics[name] = newMetric(layerUnit(name), []float64{v})
	}
	for _, r := range base {
		for name, v := range r.out.layer {
			metrics[name] = newMetric(layerUnit(name), []float64{v})
		}
	}
	if b, t := baseE2E["ops_per_s"].Value, tracedE2E["ops_per_s"].Value; b > 0 && !def.tracedDiffers {
		metrics["trace.overhead_frac"] = newMetric("ratio", []float64{1 - t/b})
	}

	skipped := make(map[string]string)
	budget := half / time.Duration(max(len(def.probes), 1))
	if budget > probeBudgetMax {
		budget = probeBudgetMax
	}
	for _, name := range def.probes {
		p, ok := probes[name]
		if !ok {
			return nil, nil, fmt.Errorf("%s: unknown probe %q", def.name, name)
		}
		v, skip, err := p(env, budget)
		switch {
		case err != nil:
			return nil, nil, fmt.Errorf("probe %s: %w", name, err)
		case skip != "":
			skipped[name] = skip
		default:
			metrics[name] = newMetric(layerUnit(name), []float64{v})
		}
	}

	wt := buildWorkloadTrace(totals, spans)
	return &runDetail{
		Workload: def.name, Seed: env.seed, Seconds: seconds, Trace: 1, Env: currentEnv(),
		Correct: failed == 0, Attempted: attempted, Failed: failed, Reps: len(base) + len(traced),
		Metrics: metrics, Skipped: skipped, Notes: env.notes,
	}, &wt, nil
}
