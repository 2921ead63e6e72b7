package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"repro/internal/corpus"
	"repro/internal/htmldoc"
	"repro/internal/nlp"
	"repro/internal/nvvp"
)

// Every input of a run is a function of (workload, seed): the guides, the
// request stream and the document edits. The server only ever sees the
// generated inputs.
//
// No query log or published trace of Egeria's traffic exists, so the
// traffic parameters below are assumptions, chosen to put each workload at
// a known operating point (mostly cache hits, no cache hits, report
// parsing, reloads beside reads), not measured from real callers.

const (
	primaryAdvisor = "cuda"
	poolPerAdvisor = 1000 // assumed: hot-query's distinct queries per advisor
	zipfS          = 1.1  // assumed: hot-query's popularity skew, which gives mostly cache hits
	zipfV          = 10   // rank offset that spreads the popularity head; see hotStream
	coldSentences  = 10000
	coldAdvising   = 0.15
	editSentences  = 3   // assumed: sentences rewritten by one document edit
	syntheticShare = 0.2 // assumed: share of report requests that are NVVP text reports
)

// request is one unit of load: a query (GET /v1/{advisor}/query) or, when
// report is non-nil, a profiler report (POST /v1/{advisor}/report).
type request struct {
	advisor string
	query   string
	report  []byte
}

// stream is a workload's request sequence. It is generated on demand in a
// fixed order, so request i is the same for a given seed however many
// requests a run consumes and however the workers interleave.
type stream struct {
	mu   sync.Mutex
	reqs []request
	gen  func() request // called under mu, in sequence order
}

const streamChunk = 1024

func (s *stream) at(i int) request {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i >= len(s.reqs) {
		for k := 0; k < streamChunk; k++ {
			s.reqs = append(s.reqs, s.gen())
		}
	}
	return s.reqs[i]
}

// scenario is everything a workload needs besides the server: the guide the
// server loads with -doc, the built-in guides it generates itself, the
// request stream, and the edit sequence of the primary guide that the
// traced replay applies.
type scenario struct {
	seed    int64
	primary string   // HTML of the primary (cuda) guide as served
	extra   []string // built-in guides served with -corpora, same seed
	stream  *stream
	edits   *editor
}

func newScenario(workload string, seed int64) (*scenario, error) {
	sc := &scenario{seed: seed}
	var guide *corpus.Guide
	switch workload {
	case "hot-query", "report":
		guide = corpus.Generate(corpus.CUDA, seed)
	case "cold-query":
		guide = corpus.GenerateSized(corpus.CUDA, coldSentences, coldAdvising, seed)
	default:
		return nil, fmt.Errorf("unknown workload %q (want %s)", workload, strings.Join(workloadNames, ", "))
	}
	sc.edits = newEditor(guide, seed)
	sc.primary = sc.edits.version(0)
	switch workload {
	case "hot-query":
		sc.extra = []string{"opencl", "xeon"}
		sc.stream = hotStream(seed, map[string][]string{
			primaryAdvisor: docTexts(sc.primary),
			"opencl":       guideTexts(corpus.Generate(corpus.OpenCL, seed)),
			"xeon":         guideTexts(corpus.Generate(corpus.XeonPhi, seed)),
		})
	case "cold-query":
		sc.stream = coldStream(seed, docTexts(sc.primary))
	case "report":
		sc.stream = reportStream(seed)
	}
	return sc, nil
}

// serverArgs are the egeria flags that serve this scenario from docPath.
func (sc *scenario) serverArgs(docPath string) []string {
	args := []string{"-doc", docPath}
	if len(sc.extra) > 0 {
		args = append(args, "-corpora", strings.Join(sc.extra, ","), "-seed", fmt.Sprint(sc.seed))
	}
	return args
}

func docTexts(html string) []string {
	return sentenceTexts(htmldoc.Parse(html).Sentences())
}

func guideTexts(g *corpus.Guide) []string { return sentenceTexts(g.Sentences) }

func sentenceTexts(sents []htmldoc.Sentence) []string {
	out := make([]string, len(sents))
	for i, s := range sents {
		out[i] = s.Text
	}
	return out
}

// window returns n consecutive words (minWords <= n <= maxWords, fewer for
// a short sentence) of a random sentence, on the assumption that a
// developer's query quotes a few words of a guide.
func window(rng *rand.Rand, texts []string, minWords, maxWords int) string {
	words := strings.Fields(texts[rng.Intn(len(texts))])
	n := minWords + rng.Intn(maxWords-minWords+1)
	if n > len(words) {
		n = len(words)
	}
	start := rng.Intn(len(words) - n + 1)
	return strings.Join(words[start:start+n], " ")
}

// hotStream draws an advisor uniformly (an assumption) and then a query
// from that advisor's pool by Zipf–Mandelbrot rank, P(k) ∝ (zipfV+k)^-zipfS
// for k = 0..999, so popular queries dominate and about 81% of requests hit
// the cache. Without the offset the top three queries of an advisor take a
// third of its requests, and which queries a seed puts there decides much
// of the work: over ten seeds the mean response size had a standard
// deviation of 14% of its mean without the offset, and 5% with it.
func hotStream(seed int64, texts map[string][]string) *stream {
	rng := rand.New(rand.NewSource(seed))
	names := []string{primaryAdvisor, "opencl", "xeon"}
	pools := make([][]string, len(names))
	for a, name := range names {
		pools[a] = make([]string, poolPerAdvisor)
		for i := range pools[a] {
			pools[a][i] = window(rng, texts[name], 3, 8)
		}
	}
	zipf := rand.NewZipf(rng, zipfS, zipfV, poolPerAdvisor-1)
	return &stream{gen: func() request {
		a := rng.Intn(len(names))
		return request{advisor: names[a], query: pools[a][zipf.Uint64()]}
	}}
}

// coldStream yields queries that are pairwise distinct after normalization,
// so no request can be answered from the cache. A 3–8-word window alone
// repeats too often in a templated guide, so each query joins a window to
// two words quoted from another sentence.
func coldStream(seed int64, texts []string) *stream {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool)
	return &stream{gen: func() request {
		for attempt := 0; attempt < 1_000_000; attempt++ {
			q := window(rng, texts, 3, 6) + " " + window(rng, texts, 2, 2)
			key := strings.Join(nlp.QueryTerms(q), " ")
			if !seen[key] {
				seen[key] = true
				return request{advisor: primaryAdvisor, query: q}
			}
		}
		panic("cold-query: no unseen query left in the guide")
	}}
}

// reportStream mixes fresh metrics snapshots (each trips 2–6 of the rule
// engine's issues) with the five synthesized NVVP text reports.
func reportStream(seed int64) *stream {
	rng := rand.New(rand.NewSource(seed))
	programs := nvvp.Programs()
	synth := make([][]byte, len(programs))
	for i, p := range programs {
		text, err := nvvp.Synthesize(p)
		if err != nil {
			panic(err) // Programs lists exactly the names Synthesize knows
		}
		synth[i] = []byte(text)
	}
	n := 0
	return &stream{gen: func() request {
		n++
		if rng.Float64() < syntheticShare {
			return request{advisor: primaryAdvisor, report: synth[rng.Intn(len(synth))]}
		}
		body, err := json.Marshal(randomMetrics(rng, n))
		if err != nil {
			panic(err) // finite floats and strings always marshal
		}
		return request{advisor: primaryAdvisor, report: body}
	}}
}

// randomMetrics returns a snapshot that violates between two and six of the
// six issue rules in nvvp.Metrics.Issues and passes the rest.
func randomMetrics(rng *rand.Rand, n int) *nvvp.Metrics {
	in := func(lo, hi float64) float64 { return lo + rng.Float64()*(hi-lo) }
	m := &nvvp.Metrics{
		Program:                 fmt.Sprintf("app%04d", rng.Intn(10000)),
		Kernel:                  fmt.Sprintf("kernel_%d", n),
		Occupancy:               in(0.55, 1),
		IssueSlotUtilization:    in(0.1, 1),
		WarpExecutionEfficiency: in(0.85, 1),
		BranchDivergence:        in(0, 0.15),
		LowThroughputInstFrac:   in(0, 0.25),
		GlobalLoadEfficiency:    in(0.65, 1),
		DramUtilization:         in(0.1, 0.75),
		TransferComputeRatio:    in(0, 0.7),
	}
	for _, rule := range rng.Perm(6)[:2+rng.Intn(5)] {
		switch rule {
		case 0:
			m.Occupancy, m.IssueSlotUtilization = in(0.05, 0.45), in(0.1, 0.55)
		case 1:
			m.WarpExecutionEfficiency = in(0.2, 0.75)
		case 2:
			m.BranchDivergence = in(0.25, 0.9)
		case 3:
			m.LowThroughputInstFrac = in(0.35, 0.9)
		case 4:
			m.GlobalLoadEfficiency = in(0.1, 0.55)
		case 5:
			m.DramUtilization, m.TransferComputeRatio = in(0.85, 1), in(0.8, 3)
		}
	}
	return m
}

// editor produces successive versions of the primary guide: version k
// rewrites editSentences more sentences of version k-1 with sentences of
// another guide of the same register.
type editor struct {
	mu     sync.Mutex
	guide  *corpus.Guide // private copy, rewritten in place
	slots  [][2]int      // (section, block) of every sentence
	donors []string
	rng    *rand.Rand
	html   []string // html[k] is version k
}

func newEditor(g *corpus.Guide, seed int64) *editor {
	e := &editor{
		guide:  g,
		donors: guideTexts(corpus.Generate(corpus.CUDA, seed+1)),
		rng:    rand.New(rand.NewSource(seed ^ 0x5eed)),
		html:   []string{g.RenderHTML()},
	}
	for si, sec := range g.Doc.Sections {
		for bi := range sec.Blocks {
			e.slots = append(e.slots, [2]int{si, bi})
		}
	}
	return e
}

// version returns the HTML of version k (0 is the original guide).
func (e *editor) version(k int) string {
	e.mu.Lock()
	defer e.mu.Unlock()
	for len(e.html) <= k {
		for _, i := range e.rng.Perm(len(e.slots))[:editSentences] {
			s := e.slots[i]
			e.guide.Doc.Sections[s[0]].Blocks[s[1]] = e.donors[e.rng.Intn(len(e.donors))]
		}
		e.html = append(e.html, e.guide.RenderHTML())
	}
	return e.html[k]
}
