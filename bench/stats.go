//go:build linux

package main

import (
	"math"
	"sort"
)

// percentile is the exact order statistic at p (0 < p ≤ 1) by nearest
// rank: the smallest sample with at least a share p of the samples at or
// below it. No interpolation, no buckets. sorted must be ascending.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// beyond is the number of samples strictly above the nearest-rank position
// of p, which is what makes a tail percentile trustworthy (≥ 10 wanted).
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)))
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), because the
// driver that accepts the benchmark computes spreads with it. One sample
// is its own three quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), xs...)
	sort.Float64s(data)
	ld := len(data)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return data[0], data[0], data[0]
	}
	const n = 4
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * (ld + 1) / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*(ld+1) - j*n)
		q[i-1] = (data[j-1]*(n-delta) + data[j]*delta) / n
	}
	return q[0], q[1], q[2]
}
