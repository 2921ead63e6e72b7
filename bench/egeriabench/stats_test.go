package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileIsNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
	}{
		{100, 0.5, 50},
		{100, 0.99, 99},
		{100, 1, 100},
		{1024, 0.99, 1014}, // rank ceil(0.99*1024) = 1014, not the truncated 1013
		{1, 0.99, 1},
		{7, 0.5, 4},
	} {
		if got := percentile(seq(tc.n), tc.p); got != tc.want {
			t.Errorf("percentile(1..%d, %v) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(empty) = %v, want 0", got)
	}
}

func TestMedianOverWindows(t *testing.T) {
	// six values: the median averages the middle two
	if got := median([]float64{9, 1, 5, 3, 7, 11}); got != 6 {
		t.Errorf("median of six values = %v, want 6", got)
	}
	xs := []float64{3, 1, 2}
	if got := median(xs); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(data, n=4) in Python
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{seq(3), 1, 3},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
		{seq(5), 1.5, 4.5},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := spread(seq(10)); got != (8.25-2.75)/5.5 {
		t.Errorf("spread(1..10) = %v", got)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{
		{999, 0.99, false},
		{1000, 0.99, true},
		{9999, 0.999, false},
		{10000, 0.999, true},
		{20, 0.5, true},
		{19, 0.5, false},
	} {
		if got := supported(tc.n, tc.p); got != tc.want {
			t.Errorf("supported(%d, %v) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}
}
