//go:build linux

package main

import (
	"math"
	"testing"
)

func TestPercentileIsAnExactOrderStatistic(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1) // 1..100
	}
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{hundred, 0.50, 50},
		{hundred, 0.99, 99},
		{hundred, 0.999, 100}, // ceil(99.9) = 100th
		{hundred, 1, 100},
		{[]float64{7}, 0.99, 7},
		{[]float64{1, 2, 3, 4}, 0.5, 2},  // ceil(2.0) = 2nd, no interpolation
		{[]float64{1, 2, 3, 4}, 0.51, 3}, // ceil(2.04) = 3rd
		{[]float64{10, 20, 30}, 0.01, 10},
	} {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(n=%d, %v) = %v, want %v", len(c.xs), c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing should be NaN")
	}
}

func TestBeyondCountsTheTail(t *testing.T) {
	// 8 s at ~4300 calls/s; the p99 sits at rank 34056 of 34400.
	if got := beyond(34400, 0.99); got != 344 {
		t.Errorf("beyond(34400, 0.99) = %d, want 344", got)
	}
	if got := beyond(100, 0.99); got != 1 {
		t.Errorf("beyond(100, 0.99) = %d, want 1", got)
	}
	if got := beyond(1000, 0.999); got != 1 {
		t.Errorf("beyond(1000, 0.999) = %d, want 1", got)
	}
}

// The expected values are what Python prints for
// statistics.quantiles(xs, n=4), worked by hand from its exclusive method.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		// Three rounds: the quartiles are min, middle, max.
		{[]float64{9.9, 7.5, 8.5}, 7.5, 8.5, 9.9},
		// m = 11: q1 at 2.75 → 2 + 0.75·(3−2); q3 at 8.25 → 8 + 0.25·(9−8).
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		// m = 5: q1 at 1.25 → 1 + 0.25·(2−1); q2 at 2.5; q3 at 3.75.
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		// Two values: positions 0.75 and 2.25 clamp to the one interval and extrapolate.
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{5}, 5, 5, 5},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if m := median(c.xs); m != q2 {
			t.Errorf("median(%v) = %v, want %v", c.xs, m, q2)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "lat", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops", Better: "higher", Bound: 0.10}
	abs := metricDef{Name: "fail_ratio", Better: "lower", AbsBound: 0.001}
	tight := func(m float64) summary { return summary{Median: m, Q1: m * 0.99, Q3: m * 1.01} }
	for _, c := range []struct {
		d            metricDef
		base, change summary
		want         string
	}{
		{lower, tight(100), tight(105), verdictWithin},
		{lower, tight(100), tight(111), verdictWorse},
		{lower, tight(100), tight(89), verdictBetter},
		{higher, tight(100), tight(89), verdictWorse},
		{higher, tight(100), tight(111), verdictBetter},
		// Quartiles 15 apart against a bound of 10: noise hides any verdict.
		{higher, summary{Median: 100, Q1: 92, Q3: 107}, tight(140), verdictUnresolved},
		{lower, tight(100), summary{Median: 100, Q1: 90, Q3: 105}, verdictUnresolved},
		{abs, summary{}, summary{}, verdictWithin},
		{abs, summary{}, summary{Median: 0.002, Q1: 0.002, Q3: 0.002}, verdictWorse},
	} {
		if got := judge(c.d, c.base, c.change); got != c.want {
			t.Errorf("judge(%s, %v → %v) = %q, want %q", c.d.Name, c.base.Median, c.change.Median, got, c.want)
		}
	}
}
