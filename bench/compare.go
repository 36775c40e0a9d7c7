package main

import (
	"fmt"
	"io"
	"math"
	"slices"
)

// verdict is -compare's judgement of one end-to-end metric on one workload.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegressed  verdict = "regressed"
	verdictUnresolved verdict = "unresolved" // the spread between repetitions is wider than the bound
)

// comparison is one row of -compare's table.
type comparison struct {
	Workload string
	Metric   string
	A, B     float64 // medians
	// Worse is how much worse B is than A as a share of A (negative: better).
	Worse   float64
	Spread  float64 // the wider of the two sides' quartile spreads
	Allowed float64 // the bound, with any absolute slack folded in as a share of A
	Verdict verdict
}

// judge compares one metric's two measurements. B regresses when its median
// is worse than A's by more than the metric's bound (plus its absolute
// slack). When either side's own repetitions spread wider than the bound,
// the two medians cannot be told apart at that resolution and the row is
// unresolved, whichever way they point.
func judge(def e2eMetric, a, b metricValue) comparison {
	c := comparison{Metric: def.Name, A: a.Value, B: b.Value}
	diff := b.Value - a.Value
	if def.Better == "higher" {
		diff = -diff
	}
	c.Allowed = def.Bound
	if a.Value != 0 {
		c.Worse = diff / math.Abs(a.Value)
		c.Allowed += def.AbsSlack / math.Abs(a.Value)
	}
	c.Spread = math.Max(relSpread(a.Values), relSpread(b.Values))
	switch {
	case a.Value == 0:
		// Only failed_frac is legitimately zero: judge it on the absolute slack.
		if diff > def.AbsSlack {
			c.Verdict = verdictRegressed
		} else {
			c.Verdict = verdictOK
		}
	case c.Spread > c.Allowed:
		c.Verdict = verdictUnresolved
	case c.Worse > c.Allowed:
		c.Verdict = verdictRegressed
	default:
		c.Verdict = verdictOK
	}
	return c
}

// compareResults judges every end-to-end metric both files have, workload by
// workload.
func compareResults(a, b resultFile) []comparison {
	var rows []comparison
	names := make([]string, 0, len(a.Workloads))
	for n := range a.Workloads {
		if _, ok := b.Workloads[n]; ok {
			names = append(names, n)
		}
	}
	slices.Sort(names)
	for _, n := range names {
		wa, wb := a.Workloads[n], b.Workloads[n]
		for _, def := range e2eMetrics {
			ma, okA := wa.EndToEnd[def.Name]
			mb, okB := wb.EndToEnd[def.Name]
			if !okA || !okB {
				continue
			}
			row := judge(def, ma, mb)
			row.Workload = n
			rows = append(rows, row)
		}
	}
	return rows
}

// compareFiles prints the comparison of two result.json files and reports
// whether any row regressed.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	var a, b resultFile
	if err := readJSON(pathA, &a); err != nil {
		return false, err
	}
	if err := readJSON(pathB, &b); err != nil {
		return false, err
	}
	rows := compareResults(a, b)
	if len(rows) == 0 {
		return false, fmt.Errorf("%s and %s have no workload and metric in common", pathA, pathB)
	}
	fmt.Fprintf(w, "%-16s %-20s %14s %14s %9s %8s %8s  %s\n",
		"workload", "metric", "a (median)", "b (median)", "b worse", "bound", "spread", "verdict")
	counts := make(map[verdict]int)
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %-20s %14.4f %14.4f %+8.1f%% %7.1f%% %7.1f%%  %s\n",
			r.Workload, r.Metric, r.A, r.B, 100*r.Worse, 100*r.Allowed, 100*r.Spread, r.Verdict)
		counts[r.Verdict]++
	}
	fmt.Fprintf(w, "%d ok, %d unresolved, %d regressed\n",
		counts[verdictOK], counts[verdictUnresolved], counts[verdictRegressed])
	return counts[verdictRegressed] > 0, nil
}
