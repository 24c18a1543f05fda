package main

import (
	"math"
	"sort"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive"
// method), so the spreads printed here match the ones Python computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	m := n + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		delta := i*m - j*4
		lo, hi := j-1, j
		if lo < 0 {
			lo = 0
		}
		if hi > n-1 {
			hi = n - 1
		}
		out[i-1] = (s[lo]*float64(4-delta) + s[hi]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// percentile returns the p-th percentile (0..100) of xs by the
// nearest-rank method.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
