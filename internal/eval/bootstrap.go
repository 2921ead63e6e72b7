package eval

import (
	"fmt"
	"math/rand"
	"sort"
)

// Interval is a bootstrap confidence interval for a statistic.
type Interval struct {
	Point float64 // statistic on the original sample
	Lo    float64 // lower percentile bound
	Hi    float64 // upper percentile bound
	Level float64 // confidence level, e.g. 0.95
}

// String renders the interval in the usual bracket notation.
func (iv Interval) String() string {
	return fmt.Sprintf("%.2f [%.2f, %.2f]", iv.Point, iv.Lo, iv.Hi)
}

// BootstrapMean computes a percentile-bootstrap confidence interval for the
// mean of values (resamples with replacement; deterministic in seed). The
// paper's Table 5 reports bare means over small student groups — the
// interval quantifies how stable those means are under resampling.
func BootstrapMean(values []float64, resamples int, level float64, seed int64) Interval {
	if len(values) == 0 {
		return Interval{Level: level}
	}
	if resamples <= 0 {
		resamples = 1000
	}
	if level <= 0 || level >= 1 {
		level = 0.95
	}
	rng := rand.New(rand.NewSource(seed))
	stats := make([]float64, resamples)
	sample := make([]float64, len(values))
	for r := 0; r < resamples; r++ {
		for i := range sample {
			sample[i] = values[rng.Intn(len(values))]
		}
		stats[r] = mean(sample)
	}
	sort.Float64s(stats)
	alpha := (1 - level) / 2
	lo := stats[clampIndex(int(alpha*float64(resamples)), resamples)]
	hi := stats[clampIndex(int((1-alpha)*float64(resamples)), resamples)]
	return Interval{Point: mean(values), Lo: lo, Hi: hi, Level: level}
}

func clampIndex(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

func mean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// PermutationPValue tests whether the mean of group a exceeds that of group
// b beyond chance: it returns the one-sided p-value of the observed mean
// difference under random relabeling. Used to check that the Table 5 group
// gap is not an artifact of the random advisor assignment.
func PermutationPValue(a, b []float64, permutations int, seed int64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 1
	}
	if permutations <= 0 {
		permutations = 2000
	}
	observed := mean(a) - mean(b)
	pool := append(append([]float64{}, a...), b...)
	rng := rand.New(rand.NewSource(seed))
	exceed := 0
	for p := 0; p < permutations; p++ {
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		diff := mean(pool[:len(a)]) - mean(pool[len(a):])
		if diff >= observed {
			exceed++
		}
	}
	return (float64(exceed) + 1) / (float64(permutations) + 1)
}
