package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func mv(values ...float64) metricValue { return newMetric("x", values) }

func TestJudge(t *testing.T) {
	ops, _ := e2eByName("ops_per_s")
	lat, _ := e2eByName("latency_p50_us")
	setup, _ := e2eByName("setup_s")
	failed, _ := e2eByName("failed_frac")
	for _, c := range []struct {
		name string
		def  e2eMetric
		a, b metricValue
		want verdict
	}{
		{"higher-is-better within bound", ops, mv(100, 101, 99), mv(95, 96, 94), verdictOK},
		{"higher-is-better past bound", ops, mv(100, 101, 99), mv(90, 91, 89), verdictRegressed},
		{"higher-is-better improved", ops, mv(100, 101, 99), mv(150, 151, 149), verdictOK},
		{"lower-is-better past bound", lat, mv(10, 10.1, 9.9), mv(11, 11.1, 10.9), verdictRegressed},
		{"lower-is-better improved", lat, mv(10, 10.1, 9.9), mv(5, 5.1, 4.9), verdictOK},
		{"spread wider than bound", lat, mv(10, 14, 6, 12, 8), mv(11, 15, 7, 13, 9), verdictUnresolved},
		{"setup within absolute slack", setup, mv(0.010, 0.011, 0.009), mv(0.040, 0.041, 0.039), verdictOK},
		{"setup past slack and bound", setup, mv(1.0, 1.01, 0.99), mv(1.5, 1.51, 1.49), verdictRegressed},
		{"no failures either side", failed, mv(0, 0, 0), mv(0, 0, 0), verdictOK},
		{"failures appear", failed, mv(0, 0, 0), mv(0.01, 0.01, 0.01), verdictRegressed},
		{"failures within slack", failed, mv(0, 0, 0), mv(0.0005, 0.0005, 0.0005), verdictOK},
	} {
		if got := judge(c.def, c.a, c.b); got.Verdict != c.want {
			t.Errorf("%s: %s (worse %.3f, allowed %.3f, spread %.3f), want %s",
				c.name, got.Verdict, got.Worse, got.Allowed, got.Spread, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, opsPerS float64) string {
		r := resultFile{Schema: 1, Workloads: map[string]workloadResult{
			"rtt_tcp": {EndToEnd: map[string]metricValue{
				"ops_per_s":   mv(opsPerS, opsPerS*1.01, opsPerS*0.99),
				"failed_frac": mv(0, 0, 0),
			}},
			"only_here_" + name: {EndToEnd: map[string]metricValue{"ops_per_s": mv(1)}},
		}}
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slow := write("a.json", 1000), write("same.json", 1010), write("slow.json", 800)

	var out bytes.Buffer
	regressed, err := compareFiles(&out, a, same)
	if err != nil || regressed {
		t.Fatalf("same commit: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if !strings.Contains(out.String(), "2 ok, 0 unresolved, 0 regressed") {
		t.Errorf("summary missing or wrong (workloads in one file only must be left out):\n%s", out.String())
	}
	out.Reset()
	regressed, err = compareFiles(&out, a, slow)
	if err != nil || !regressed {
		t.Fatalf("20%% slower: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	for _, want := range []string{"rtt_tcp", "ops_per_s", "1000.0000", "800.0000", "+20.0%", "7.0%", "regressed"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	if _, err := compareFiles(&out, a, filepath.Join(dir, "missing.json")); err == nil {
		t.Error("a missing file must be an error")
	}
}
