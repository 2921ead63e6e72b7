// Package study reproduces the paper's user study (§4.1, Table 5) as a
// simulation. The original study gave 37 graduate students two weeks to
// optimize a CUDA sparse-matrix normalization program, with 22 randomly
// chosen students also receiving the Egeria-built CUDA advisor; the Egeria
// group achieved markedly larger speedups on both study GPUs.
//
// The simulation preserves the causal chain the table measures:
//
//	advisor output (real Stage I + Stage II over the synthetic CUDA guide)
//	→ which optimizations a student discovers
//	→ modeled kernel time (package gpusim)
//	→ speedup.
//
// Students with the advisor feed it the norm.cu NVVP report and the
// follow-up queries the paper quotes; an optimization "surfaces" when the
// retrieved advice mentions it. Surfaced optimizations are discovered with
// high probability, unsurfaced ones at the background rate every student
// has. Control students rely on the background rate alone.
package study

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/gpusim"
	"repro/internal/nvvp"
	"repro/internal/textproc"
)

// Params configures a simulated study run.
type Params struct {
	Students    int // total participants (paper: 37)
	WithAdvisor int // participants given the advisor (paper: 22)
	Seed        int64

	// discovery probabilities; zero values take the defaults
	PSurfaced   float64 // advisor group, optimization surfaced by advice (default 0.92)
	PBackground float64 // any student's own expertise (default 0.62)
}

// DefaultParams returns the paper's study configuration.
func DefaultParams() Params {
	return Params{Students: 37, WithAdvisor: 22, Seed: 17}
}

// StudentResult is one simulated participant.
type StudentResult struct {
	ID          int
	UsedAdvisor bool
	Discovered  []gpusim.Optimization
	Speedup780  float64
	Speedup480  float64
}

// GroupStats aggregates one group on one device.
type GroupStats struct {
	Average float64
	Median  float64
	N       int
}

// Results is a full study outcome (the content of Table 5).
type Results struct {
	Students   []StudentResult
	Surfaced   []gpusim.Optimization // optimizations the advisor surfaced
	Egeria780  GroupStats
	Egeria480  GroupStats
	Control780 GroupStats
	Control480 GroupStats
}

// followUpQueries are the student questions the paper quotes in §4.1.
var followUpQueries = []string{
	"reduce instruction and memory latency",
	"warp execution efficiency",
	"How to avoid thread divergence",
	"memory access coalescence",
}

// signatures map each optimization to the stemmed phrases whose appearance
// in retrieved advice surfaces it.
var signatures = map[gpusim.Optimization][]textproc.Phrase{
	gpusim.RemoveDivergence: textproc.StemPhrases([]string{"divergent", "divergence", "branch direction", "predication"}),
	gpusim.CoalesceAccesses: textproc.StemPhrases([]string{"coalescing", "coalesce", "coalesced", "alignment", "access pattern", "stride", "segment"}),
	gpusim.TuneOccupancy:    textproc.StemPhrases([]string{"occupancy", "threads per block", "block size", "register usage", "resident", "launch configuration", "execution configuration"}),
	gpusim.UnrollLoop:       textproc.StemPhrases([]string{"unroll", "unrolling"}),
	gpusim.StageShared:      textproc.StemPhrases([]string{"shared memory", "stage", "staging", "tile"}),
	gpusim.PinTransfers:     textproc.StemPhrases([]string{"pinned", "page-locked", "transfers", "streams", "overlap", "batching"}),
}

// SurfacedOptimizations runs the advisor exactly as a student would (report
// upload plus follow-up queries) and returns the optimizations whose
// signatures appear in the retrieved advice.
func SurfacedOptimizations(advisor *core.Advisor) ([]gpusim.Optimization, error) {
	text, err := nvvp.Synthesize("norm")
	if err != nil {
		return nil, err
	}
	report, err := nvvp.Parse(text)
	if err != nil {
		return nil, err
	}
	var adviceStems [][]string
	for _, ra := range advisor.AnswerReport(report) {
		for _, ans := range ra.Answers {
			adviceStems = append(adviceStems, textproc.StemAll(textproc.Words(ans.Sentence.Text)))
		}
	}
	for _, q := range followUpQueries {
		for _, ans := range advisor.Query(q) {
			adviceStems = append(adviceStems, textproc.StemAll(textproc.Words(ans.Sentence.Text)))
		}
	}
	return matchStems(adviceStems), nil
}

// MatchOptimizations maps retrieved advice sentences to the kernel
// optimizations they mention, via the stemmed signature phrases. Used by
// the study and by closed-loop examples that apply advice to the kernel
// model.
func MatchOptimizations(adviceTexts []string) []gpusim.Optimization {
	stems := make([][]string, len(adviceTexts))
	for i, t := range adviceTexts {
		stems[i] = textproc.StemAll(textproc.Words(t))
	}
	return matchStems(stems)
}

func matchStems(adviceStems [][]string) []gpusim.Optimization {
	var surfaced []gpusim.Optimization
	for opt := gpusim.Optimization(0); opt < gpusim.NumOptimizations; opt++ {
		for _, adv := range adviceStems {
			if textproc.FindPhrase(adv, signatures[opt]) >= 0 {
				surfaced = append(surfaced, opt)
				break
			}
		}
	}
	return surfaced
}

// Run simulates the study against a CUDA advisor.
func Run(advisor *core.Advisor, p Params) (*Results, error) {
	if p.Students <= 0 || p.WithAdvisor < 0 || p.WithAdvisor > p.Students {
		return nil, fmt.Errorf("study: bad params %+v", p)
	}
	if p.PSurfaced == 0 {
		p.PSurfaced = 0.92
	}
	if p.PBackground == 0 {
		p.PBackground = 0.62
	}
	surfaced, err := SurfacedOptimizations(advisor)
	if err != nil {
		return nil, err
	}
	isSurfaced := map[gpusim.Optimization]bool{}
	for _, o := range surfaced {
		isSurfaced[o] = true
	}

	rng := rand.New(rand.NewSource(p.Seed))
	base := gpusim.NormKernel()
	d780, d480 := gpusim.GTX780(), gpusim.GTX480()

	// random assignment of the advisor, as in the paper
	order := rng.Perm(p.Students)
	hasAdvisor := make([]bool, p.Students)
	for i := 0; i < p.WithAdvisor; i++ {
		hasAdvisor[order[i]] = true
	}

	res := &Results{Surfaced: surfaced}
	for id := 0; id < p.Students; id++ {
		skill := 0.8 + 0.4*rng.Float64() // individual variation
		var discovered []gpusim.Optimization
		for opt := gpusim.Optimization(0); opt < gpusim.NumOptimizations; opt++ {
			prob := p.PBackground * skill
			if hasAdvisor[id] && isSurfaced[opt] {
				prob = p.PSurfaced * skill
			}
			if prob > 0.99 {
				prob = 0.99
			}
			if rng.Float64() < prob {
				discovered = append(discovered, opt)
			}
		}
		k := gpusim.Apply(base, discovered...)
		res.Students = append(res.Students, StudentResult{
			ID:          id,
			UsedAdvisor: hasAdvisor[id],
			Discovered:  discovered,
			Speedup780:  gpusim.Speedup(base, k, d780),
			Speedup480:  gpusim.Speedup(base, k, d480),
		})
	}
	res.Egeria780 = stats(res.Students, true, func(s StudentResult) float64 { return s.Speedup780 })
	res.Egeria480 = stats(res.Students, true, func(s StudentResult) float64 { return s.Speedup480 })
	res.Control780 = stats(res.Students, false, func(s StudentResult) float64 { return s.Speedup780 })
	res.Control480 = stats(res.Students, false, func(s StudentResult) float64 { return s.Speedup480 })
	return res, nil
}

func stats(students []StudentResult, advisor bool, metric func(StudentResult) float64) GroupStats {
	var vals []float64
	for _, s := range students {
		if s.UsedAdvisor == advisor {
			vals = append(vals, metric(s))
		}
	}
	if len(vals) == 0 {
		return GroupStats{}
	}
	sort.Float64s(vals)
	var sum float64
	for _, v := range vals {
		sum += v
	}
	med := vals[len(vals)/2]
	if len(vals)%2 == 0 {
		med = (vals[len(vals)/2-1] + vals[len(vals)/2]) / 2
	}
	return GroupStats{Average: sum / float64(len(vals)), Median: med, N: len(vals)}
}

// speedups collects one group's speedups on one device.
func (r *Results) speedups(advisor bool, on780 bool) []float64 {
	var out []float64
	for _, s := range r.Students {
		if s.UsedAdvisor != advisor {
			continue
		}
		if on780 {
			out = append(out, s.Speedup780)
		} else {
			out = append(out, s.Speedup480)
		}
	}
	return out
}

// Table5CI renders Table 5 with bootstrap confidence intervals on the group
// means and a permutation p-value for the group gap — a statistical
// extension over the paper's bare means (n=22 and n=15 are small groups).
func Table5CI(r *Results) string {
	var b strings.Builder
	b.WriteString("Table 5 with 95% bootstrap CIs on the group means:\n")
	rows := []struct {
		name    string
		advisor bool
	}{
		{"Group 1: Egeria used", true},
		{"Group 2: Egeria not used", false},
	}
	for _, row := range rows {
		iv780 := eval.BootstrapMean(r.speedups(row.advisor, true), 2000, 0.95, 5)
		iv480 := eval.BootstrapMean(r.speedups(row.advisor, false), 2000, 0.95, 5)
		fmt.Fprintf(&b, "%-26s GTX780 %sX   GTX480 %sX\n", row.name, iv780, iv480)
	}
	p780 := eval.PermutationPValue(r.speedups(true, true), r.speedups(false, true), 5000, 5)
	p480 := eval.PermutationPValue(r.speedups(true, false), r.speedups(false, false), 5000, 5)
	fmt.Fprintf(&b, "group gap one-sided permutation p: GTX780 %.4f, GTX480 %.4f\n", p780, p480)
	return b.String()
}

// Table5 renders the results in the paper's Table 5 layout.
func Table5(r *Results) string {
	var b strings.Builder
	b.WriteString("Table 5: Speedups on a GPU Program\n")
	b.WriteString("                          GeForce GTX 780        GeForce GTX 480\n")
	b.WriteString("                          Average   Median       Average   Median\n")
	fmt.Fprintf(&b, "Group 1: Egeria used      %.2fX     %.2fX        %.2fX     %.2fX\n",
		r.Egeria780.Average, r.Egeria780.Median, r.Egeria480.Average, r.Egeria480.Median)
	fmt.Fprintf(&b, "Group 2: Egeria not used  %.2fX     %.2fX        %.2fX     %.2fX\n",
		r.Control780.Average, r.Control780.Median, r.Control480.Average, r.Control480.Median)
	return b.String()
}
