// Command bench is the repository's benchmark: seven named workloads, ten
// end-to-end metrics, per-layer metrics from a harness-side trace and from
// direct layer probes. See README.md in this directory.
//
//	bash bench/run.sh -seed 1                      every workload, untraced then traced;
//	                                               writes bench/out/result.json and trace.json
//	bash bench/run.sh --workload rtt_tcp --seed 1 --seconds 10 --trace 0
//	                                               one workload, one JSON line (the acceptance driver's form)
//	bash bench/run.sh -compare a.json b.json       compare two result files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// workloads lists the benchmark's workloads; the names are fixed (later
// issues cite them).
var workloads = []workloadDef{
	{
		name: "rtt_tcp", minReps: 10, make: newRTTTCP,
		why: "64 B echo over loopback tcp, one in flight: per-message fixed cost in buffer, wire, core, transport/tcp and reactor dominates and bytes do not.",
		probes: []string{"wire.encode_ns", "wire.decode_ns", "buffer.encode_ns_64", "bufpool.getput_ns_64",
			"core.select_ns", "core.sp_transfer_ns", "tcp.rtt_ns", "tcp.dial_us", "udp.rtt_ns", "reactor.wake_us"},
	},
	{
		name: "poll_tax", minReps: 10, make: newPollTax,
		why:    "64 B echo over shm while tcp, udp, rudp and 16 idle tcp links are polled: what idle expensive methods cost the fast one (paper Fig 4/6); the tcp data path does nothing here.",
		probes: []string{"shm.rtt_ns", "inproc.rtt_ns", "rudp.rtt_ns", "tcp.poll_idle_ns", "core.multicast_rsr_ns_8"},
	},
	{
		name: "bulk_tcp", minReps: 10, make: newBulkTCP,
		why: "256 KiB to 4 MiB one-way transfers over tcp, every byte verified: per-byte cost (copies, bufpool classes and the oversize bypass, vectored writes); the same tcp layer as rtt_tcp used the other way.",
		probes: []string{"tcp.bulk_mb_s", "shm.bulk_mb_s", "bufpool.getput_ns_1m", "bufpool.oversize_ns",
			"buffer.float64s_mb_s", "secure.seal_open_ns_64", "secure.seal_open_mb_s"},
	},
	{
		name: "bulk_rudp", minReps: 10, make: newBulkRUDP,
		why:    "1 MiB one-way transfers over rudp, about 18 fragments each: frag, rudp and rawpoll batching do the work; nothing in rtt_tcp touches them.",
		probes: []string{"rudp.bulk_mb_s", "udp.burst_msgs_s", "frag.add_ns_per_frag", "frag.reassemble_mb_s"},
	},
	{
		name: "rpc_mix", minReps: 10, make: newRPCMix,
		why:    "Two closed-loop callers, Zipf keys, get/put/scan against a threaded flow-controlled KV server: rpc, dispatch lanes, flow credit and deadlines do the work, and two callers expose shared locks.",
		probes: []string{"rpc.local_call_ns", "flow.acquire_ns", "flow.consume_grant_ns"},
	},
	{
		name: "cluster_churn", minReps: 5, toCompletion: true, tracedDiffers: true, make: newClusterChurn,
		why:    "cluster.RunScale join, churn and partition-heal on a simulated fabric: cluster gossip, names.Registry and simnet only, no sockets.",
		probes: []string{"names.merge_ns", "names.delta_ns", "names.digest_ns"},
	},
	{
		name: "climate_coupled", minReps: 10, toCompletion: true, make: newClimateCoupled,
		why:    "The paper's coupled model over mpi on a two-partition machine with a 3 us and a 60 us poll: mpi collectives and multimethod polling with real cost asymmetry (paper Table 1).",
		probes: []string{"mpi.pingpong_ns", "mpi.allreduce_us_4"},
	},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload and print one JSON line; empty runs them all")
		seed     = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Int("seconds", 10, "seconds one run measures for")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics (harness spans, counters, probes)")
		outDir   = flag.String("out", filepath.Join("bench", "out"), "directory for result.json, trace.json and scratch files")
		compare  = flag.Bool("compare", false, "compare two result.json files given as arguments")
		list     = flag.Bool("list", false, "print the workloads and metrics as BENCHMARK.json and exit")
	)
	flag.Parse()
	var err error
	switch {
	case *list:
		err = printBenchmarkJSON(os.Stdout, *seconds)
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare needs two result files, got %d", flag.NArg())
			break
		}
		var regressed bool
		if regressed, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err == nil && regressed {
			os.Exit(1)
		}
	case *workload != "":
		err = runOne(*workload, *seed, *seconds, *trace, *outDir)
	default:
		err = runAll(*seed, *seconds, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// driverLine is the one JSON object the acceptance driver reads from the
// last line of standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// detailPath is where a child run leaves its full detail for the parent.
func detailPath(outDir, workload string, trace int) string {
	return filepath.Join(outDir, fmt.Sprintf("%s.trace%d.json", workload, trace))
}

func tracePath(outDir, workload string) string {
	return filepath.Join(outDir, workload+".spans.json")
}

// runOne runs one workload in this process, writes its detail file (and its
// spans when traced), and prints the driver line. An incorrect run still
// prints its line but exits non-zero.
func runOne(name string, seed int64, seconds, trace int, outDir string) error {
	def := workloadByName(name)
	if def == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	tmp := filepath.Join(outDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	absTmp, err := filepath.Abs(tmp)
	if err != nil {
		return err
	}
	env := &benchEnv{seed: seed, tmpDir: absTmp}
	var detail *runDetail
	if trace == 0 {
		detail, err = runUntraced(def, env, seconds)
	} else {
		var wt *workloadTrace
		if detail, wt, err = runTraced(def, env, seconds); err == nil {
			err = writeJSON(tracePath(outDir, name), wt)
		}
	}
	if err != nil {
		return err
	}
	if err := writeJSON(detailPath(outDir, name, trace), detail); err != nil {
		return err
	}
	line := driverLine{Correct: detail.Correct, Attempted: detail.Attempted, Failed: detail.Failed,
		Metrics: make(map[string]driverValue)}
	if trace == 0 {
		for _, m := range e2eMetrics {
			if !m.Gated {
				continue
			}
			mv, ok := detail.Metrics[m.Name]
			if !ok {
				return fmt.Errorf("%s: end-to-end metric %s was not measured", name, m.Name)
			}
			line.Metrics[m.Name] = driverValue{Value: mv.Value, Unit: m.Unit}
		}
	} else {
		// The driver wants every per-layer name on every workload; one that
		// does not apply to this workload (or was skipped) reads 0 there. The
		// detail file and result.json keep the distinction.
		for _, m := range layerMetrics {
			line.Metrics[m.Name] = driverValue{Value: detail.Metrics[m.Name].Value, Unit: m.Unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	if !detail.Correct {
		return fmt.Errorf("%s: %d of %d operations failed or were wrong: %s",
			name, detail.Failed, detail.Attempted, strings.Join(detail.Notes, "; "))
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// workloadResult is one workload's section of result.json.
type workloadResult struct {
	Why       string                 `json:"why"`
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Reps      int                    `json:"repetitions"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
	Skipped   map[string]string      `json:"skipped,omitempty"`
	Notes     []string               `json:"notes,omitempty"`
}

// resultFile is result.json.
type resultFile struct {
	Schema    int                       `json:"schema"`
	Seed      int64                     `json:"seed"`
	Seconds   int                       `json:"seconds"`
	Env       envInfo                   `json:"env"`
	Workloads map[string]workloadResult `json:"workloads"`
}

// traceFile is trace.json: each workload's spans and totals.
type traceFile struct {
	Note      string                   `json:"note"`
	Workloads map[string]workloadTrace `json:"workloads"`
}

// runAll runs every workload untraced and then traced, each in a child
// process of its own (so set-up time and peak memory are per workload),
// prints every metric by name with its unit, and writes result.json and
// trace.json. Any incorrect workload makes it fail.
func runAll(seed int64, seconds int, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	res := resultFile{Schema: 1, Seed: seed, Seconds: seconds, Env: currentEnv(), Workloads: make(map[string]workloadResult)}
	tf := traceFile{
		Note:      fmt.Sprintf("spans are recorded by the harness around its calls into each layer; each tracer keeps its first %d spans, totals cover all", maxKeptSpans),
		Workloads: make(map[string]workloadTrace),
	}
	var wrong []string
	for _, def := range workloads {
		wr := workloadResult{Why: def.why, Correct: true}
		for trace := 0; trace <= 1; trace++ {
			fmt.Printf("== %s (trace %d)\n", def.name, trace)
			cmd := exec.Command(self, "-workload", def.name, "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-out", outDir)
			cmd.Stderr = os.Stderr
			runErr := cmd.Run() // the child's JSON line is not needed: the detail file says more
			var d runDetail
			if err := readJSON(detailPath(outDir, def.name, trace), &d); err != nil {
				return fmt.Errorf("%s (trace %d): %v; child: %v", def.name, trace, err, runErr)
			}
			wr.Correct = wr.Correct && d.Correct && runErr == nil
			wr.Attempted += d.Attempted
			wr.Failed += d.Failed
			for _, n := range d.Notes {
				if !slices.Contains(wr.Notes, n) {
					wr.Notes = append(wr.Notes, n)
				}
			}
			if trace == 0 {
				wr.EndToEnd, wr.Reps = d.Metrics, d.Reps
			} else {
				wr.PerLayer, wr.Skipped = d.Metrics, d.Skipped
				var wt workloadTrace
				if err := readJSON(tracePath(outDir, def.name), &wt); err != nil {
					return err
				}
				tf.Workloads[def.name] = wt
			}
			printMetrics(d.Metrics, d.Skipped)
		}
		if !wr.Correct {
			wrong = append(wrong, def.name)
		}
		res.Workloads[def.name] = wr
	}
	if err := writeJSON(filepath.Join(outDir, "result.json"), res); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(outDir, "trace.json"), tf); err != nil {
		return err
	}
	fmt.Printf("wrote %s and %s\n", filepath.Join(outDir, "result.json"), filepath.Join(outDir, "trace.json"))
	if len(wrong) > 0 {
		return fmt.Errorf("incorrect results in: %s", strings.Join(wrong, ", "))
	}
	return nil
}

// printMetrics prints every metric by name with its value, range and unit.
func printMetrics(metrics map[string]metricValue, skipped map[string]string) {
	names := make([]string, 0, len(metrics)+len(skipped))
	for n := range metrics {
		names = append(names, n)
	}
	for n := range skipped {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		if why, ok := skipped[n]; ok {
			fmt.Printf("  %-28s skipped: %s\n", n, why)
			continue
		}
		m := metrics[n]
		if len(m.Values) > 1 {
			fmt.Printf("  %-28s %14.4f %-6s (min %.4f, max %.4f, %d values", n, m.Value, m.Unit, m.Min, m.Max, len(m.Values))
			if m.Samples > 0 {
				fmt.Printf(", %d samples each", m.Samples)
			}
			fmt.Println(")")
		} else {
			fmt.Printf("  %-28s %14.4f %s\n", n, m.Value, m.Unit)
		}
	}
}

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string            `json:"command"`
	Paths      []string            `json:"paths"`
	RunSeconds int                 `json:"run_seconds"`
	Workloads  []map[string]string `json:"workloads"`
	EndToEnd   []map[string]any    `json:"end_to_end"`
	PerLayer   []map[string]string `json:"per_layer"`
}

func currentBenchmarkJSON(seconds int) benchmarkJSON {
	b := benchmarkJSON{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: seconds}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, map[string]string{"name": w.name, "why": w.why})
	}
	for _, m := range e2eMetrics {
		if m.Gated {
			b.EndToEnd = append(b.EndToEnd, map[string]any{"name": m.Name, "unit": m.Unit, "better": m.Better, "bound": driverBound})
		}
	}
	for _, m := range layerMetrics {
		b.PerLayer = append(b.PerLayer, map[string]string{"name": m.Name, "unit": m.Unit, "better": m.Better})
	}
	return b
}

func printBenchmarkJSON(w *os.File, seconds int) error {
	data, err := json.MarshalIndent(currentBenchmarkJSON(seconds), "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(data))
	return err
}
