package cluster

import (
	"testing"
)

// Pinned convergence bounds (gossip rounds) for the scale suite. These are
// deliberately loose multiples of observed behaviour — the suite exists to
// catch convergence regressions (a protocol change that turns O(log N) rounds
// into O(N)), not to race the constant factor.
const (
	scaleJoinBound      = 60
	scaleChurnBound     = 60
	scalePartitionBound = 80
)

func runScalePhases(t *testing.T, spec ScaleSpec) []ScalePhase {
	t.Helper()
	phases, err := RunScale(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range phases {
		t.Logf("phase %-14s rounds=%-3d converged=%-5v members=%-4d elapsed=%s",
			p.Name, p.Rounds, p.Converged, p.Members, p.Elapsed)
		if !p.Converged {
			t.Errorf("phase %s did not converge in %d rounds", p.Name, p.Rounds)
		}
	}
	return phases
}

func checkBounds(t *testing.T, phases []ScalePhase) {
	t.Helper()
	bounds := map[string]int{
		"join":           scaleJoinBound,
		"churn":          scaleChurnBound,
		"partition-heal": scalePartitionBound,
	}
	for _, p := range phases {
		if max, ok := bounds[p.Name]; ok && p.Converged && p.Rounds > max {
			t.Errorf("phase %s took %d rounds, pinned bound is %d", p.Name, p.Rounds, max)
		}
	}
}

// TestClusterScaleSmall keeps a quick always-on datapoint (also under -race
// in ordinary CI runs): 100 contexts with full churn and partition phases.
func TestClusterScaleSmall(t *testing.T) {
	phases := runScalePhases(t, ScaleSpec{N: 100, Churn: true})
	if len(phases) != 3 {
		t.Fatalf("got %d phases, want 3", len(phases))
	}
	checkBounds(t, phases)
}

// TestClusterScaleConvergence is the headline run: 1000+ contexts through
// join, churn (graceful leaves, crashes, late joins), and an even/odd
// network partition with heal — each phase must reconverge within its
// pinned round bound.
func TestClusterScaleConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-context scale run skipped in -short mode")
	}
	n := 1000
	if raceEnabled {
		// The race detector multiplies the run's cost several-fold; a smaller
		// cluster keeps the race-clean -count=2 CI pass affordable while the
		// regular build still proves the 1000-context bound.
		n = 300
	}
	phases := runScalePhases(t, ScaleSpec{N: n, Churn: true})
	if len(phases) != 3 {
		t.Fatalf("got %d phases, want 3", len(phases))
	}
	checkBounds(t, phases)
	// The churn phase must have actually shrunk and regrown the membership:
	// 2% leaves + 2% crashes + 2% fresh joins ⇒ N - N/50 live members.
	if want := n - n/50; phases[1].Members != want {
		t.Errorf("post-churn members = %d, want %d", phases[1].Members, want)
	}
}

// TestClusterScaleChurnRounds pins the exact rounds of the configuration the
// repository benchmark's cluster_churn workload runs: 200 contexts, churn and
// partition-heal. Gossip is deterministic here (seeded peer sampling,
// zero-latency fabric, rounds driven in order), so the counts repeat run to
// run, and a protocol change that moves them shows up as a failing test
// rather than only as a benchmark row. The bounds of checkBounds stay loose;
// these do not.
func TestClusterScaleChurnRounds(t *testing.T) {
	if raceEnabled {
		t.Skip("the same counts hold under -race, where the run costs about 8 s; the plain build pins them")
	}
	phases := runScalePhases(t, ScaleSpec{N: 200, Churn: true})
	want := map[string]int{"join": 6, "churn": 5, "partition-heal": 6}
	if len(phases) != len(want) {
		t.Fatalf("got %d phases, want %d", len(phases), len(want))
	}
	for _, p := range phases {
		if p.Rounds != want[p.Name] {
			t.Errorf("phase %s took %d rounds, want exactly %d", p.Name, p.Rounds, want[p.Name])
		}
	}
}
