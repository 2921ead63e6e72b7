package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: p99 needs at least 1,000 samples, p99.9 at least 10,000.
const minBeyond = 10

// supported reports whether n samples hold at least minBeyond samples
// beyond the p-quantile (0 < p < 1).
func supported(n int, p float64) bool {
	return float64(n)*(1-p) >= minBeyond-1e-9
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of sorted:
// the value at 1-indexed rank ceil(p*n). It returns 0 for no samples.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count) without modifying xs; 0 for no values.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first and third quartiles of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the default "exclusive" method),
// the one the acceptance protocol uses for run-to-run spread.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the distance between the quartiles of xs as a share of their
// median; 0 when the median is 0.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs(q3-q1) / math.Abs(m)
}
