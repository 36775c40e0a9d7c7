package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// TestBenchmarkJSONInSync checks the repository's BENCHMARK.json against
// the catalogue in metrics.go and the workload list in main.go, and both
// against the limits the acceptance driver enforces before its first run.
func TestBenchmarkJSONInSync(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	var onDisk benchmarkJSON
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	// Compare through JSON so number and map types line up.
	var want benchmarkJSON
	wantData, err := json.Marshal(currentBenchmarkJSON(onDisk.RunSeconds))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(wantData, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, want) {
		t.Fatalf("BENCHMARK.json differs from the benchmark's own catalogue; regenerate it with `bash bench/run.sh -list -seconds %d`", onDisk.RunSeconds)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is not a valid name", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	if n := len(onDisk.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range onDisk.Workloads {
		checkName("workload", w["name"])
		if why := w["why"]; why == "" || len(why) > 200 {
			t.Errorf("workload %s: why is %d characters, want 1..200", w["name"], len(why))
		}
	}
	hasSetup := false
	if n := len(onDisk.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	for _, m := range onDisk.EndToEnd {
		name, _ := m["name"].(string)
		unit, _ := m["unit"].(string)
		bound, _ := m["bound"].(float64)
		checkName("end-to-end metric", name)
		if !unitRE.MatchString(unit) {
			t.Errorf("metric %s: unit %q is not a valid unit", name, unit)
		}
		if bound <= 0 || bound > 0.25 {
			t.Errorf("metric %s: bound %v is outside (0, 0.25]", name, bound)
		}
		if name == "setup_s" {
			hasSetup = unit == "s" && m["better"] == "lower"
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in seconds, lower is better")
	}
	if n := len(onDisk.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, m := range onDisk.PerLayer {
		checkName("per-layer metric", m["name"])
		if !unitRE.MatchString(m["unit"]) {
			t.Errorf("metric %s: unit %q is not a valid unit", m["name"], m["unit"])
		}
	}
	if onDisk.RunSeconds < 1 || onDisk.RunSeconds > 60 {
		t.Errorf("run_seconds %d is outside 1..60", onDisk.RunSeconds)
	}
}

// TestProbesAttached checks that every probe metric in the catalogue has an
// implementation and is attached to exactly one workload.
func TestProbesAttached(t *testing.T) {
	attached := map[string]string{}
	for _, w := range workloads {
		for _, p := range w.probes {
			if prev, dup := attached[p]; dup {
				t.Errorf("probe %s is attached to both %s and %s", p, prev, w.name)
			}
			attached[p] = w.name
			if _, ok := probes[p]; !ok {
				t.Errorf("workload %s attaches unknown probe %s", w.name, p)
			}
		}
	}
	for _, m := range layerMetrics {
		if m.Source != "probe" {
			continue
		}
		if _, ok := probes[m.Name]; !ok {
			t.Errorf("probe metric %s has no implementation", m.Name)
		}
		if _, ok := attached[m.Name]; !ok {
			t.Errorf("probe metric %s is attached to no workload", m.Name)
		}
	}
	for name := range probes {
		if layerUnit(name) == "" {
			t.Errorf("probe %s is not in the metric catalogue", name)
		}
	}
}
