package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	s := make([]uint32, 100)
	for i := range s {
		s[i] = uint32(i + 1) // 1..100
	}
	for _, c := range []struct {
		p    float64
		want uint32
	}{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.5, 1}, {99.5, 100}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%v of 1..100 = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile([]uint32{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %d, want 7", got)
	}
	if got := percentile([]uint32(nil), 50); got != 0 {
		t.Errorf("p50 of nothing = %d, want 0", got)
	}
	// Nearest rank: the median of four samples is the second, not a mean.
	if got := percentile([]float64{1, 2, 3, 4}, 50); got != 2 {
		t.Errorf("p50 of 1..4 = %v, want 2", got)
	}
}

func TestMedianOfRepetitions(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{9}, 9},
		{nil, 0},
		{[]float64{10, 10, 10, 10, 1000}, 10}, // one slow repetition does not move it
	} {
		in := append([]float64(nil), c.in...)
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
		for i := range in {
			if in[i] != c.in[i] {
				t.Fatalf("median reordered its input: %v", c.in)
			}
		}
	}
}

func TestRelSpread(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) is [2.75, 5.5, 8.25]; the
	// median is 5.5, so the spread is 5.5/5.5.
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := relSpread(ten); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want 1", got)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) is [1.5, 4.0, 12.0].
	if got, want := relSpread([]float64{1, 2, 4, 8, 16}), 10.5/4; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	for _, v := range [][]float64{nil, {3}, {0, 0, 0}} {
		if got := relSpread(v); got != 0 {
			t.Errorf("spread of %v = %v, want 0", v, got)
		}
	}
}

func TestFailedFrac(t *testing.T) {
	if got := failedFrac(0, 0); got != 0 {
		t.Errorf("nothing attempted: %v, want 0", got)
	}
	if got := failedFrac(3, 1000); got != 0.003 {
		t.Errorf("3 of 1000: %v, want 0.003", got)
	}
	if got := failedFrac(5, 5); got != 1 {
		t.Errorf("all failed: %v, want 1", got)
	}
}
