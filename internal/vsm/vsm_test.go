package vsm

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/obs"
	"repro/internal/textproc"
)

var corpus = []string{
	"Use shared memory to reduce global memory traffic.",
	"Avoid bank conflicts in shared memory.",
	"The warp size is thirty-two threads.",
	"Coalesce global memory accesses to maximize bandwidth.",
	"Unroll small loops to reduce instruction overhead.",
	"Register usage can be controlled with a compiler option.",
	"Minimize divergent warps caused by control flow instructions.",
	"Overlap data transfers with kernel execution using streams.",
}

func TestQueryRelevanceOrdering(t *testing.T) {
	ix := Build(corpus)
	matches := query(t, ix, "how to avoid shared memory bank conflicts", QueryOpts{Threshold: 0.01})
	if len(matches) == 0 {
		t.Fatal("no matches")
	}
	if matches[0].Index != 1 {
		t.Errorf("top match = %d (%q), want 1", matches[0].Index, corpus[matches[0].Index])
	}
	for i := 1; i < len(matches); i++ {
		if matches[i].Score > matches[i-1].Score {
			t.Errorf("matches not sorted: %v", matches)
		}
	}
}

func TestQueryThreshold(t *testing.T) {
	ix := Build(corpus)
	all := query(t, ix, "memory", QueryOpts{})
	strict := query(t, ix, "memory", QueryOpts{Threshold: 0.5})
	if len(strict) > len(all) {
		t.Error("higher threshold returned more matches")
	}
	for _, m := range strict {
		if m.Score < 0.5 {
			t.Errorf("match below threshold: %+v", m)
		}
	}
}

func TestQueryNoVocabularyOverlap(t *testing.T) {
	ix := Build(corpus)
	if got := query(t, ix, "zyzzyva quux", QueryOpts{Threshold: 0.01}); len(got) != 0 {
		t.Errorf("expected no matches, got %v", got)
	}
	if got := query(t, ix, "", QueryOpts{Threshold: 0.01}); len(got) != 0 {
		t.Errorf("empty query matched: %v", got)
	}
}

// TestSimilarityBounds: every sentence's cosine against its own text is 1.
func TestSimilarityBounds(t *testing.T) {
	ix := Build(corpus)
	for i := range corpus {
		s := engineScores(t, ix, textproc.NormalizeTerms(corpus[i]), BackendVSM)[i]
		if s < 0.999 || s > 1.001 {
			t.Errorf("self-similarity of %d = %f, want 1", i, s)
		}
	}
}

func TestIDFBehaviour(t *testing.T) {
	ix := Build(corpus)
	// "memory" appears in several sentences, "warp" in fewer:
	// rarer terms must have higher IDF.
	if idfOf(ix, "memori") <= 0 {
		t.Errorf("idf(memori) = %f, want > 0", idfOf(ix, "memori"))
	}
	if idfOf(ix, "warp") <= idfOf(ix, "memori") {
		t.Errorf("idf(warp)=%f should exceed idf(memori)=%f", idfOf(ix, "warp"), idfOf(ix, "memori"))
	}
	if idfOf(ix, "nonexistentterm") != 0 {
		t.Error("unknown term should have idf 0")
	}
}

// TestQueryEmptyAndUnknownTerms: an empty query and one with no term in
// the vocabulary match nothing, and score every document exactly zero.
func TestQueryEmptyAndUnknownTerms(t *testing.T) {
	ix := BuildFromTerms([][]string{{"alpha", "beta"}, {"gamma"}}, nil)
	if got := run(t, ix, nil, QueryOpts{Threshold: DefaultThreshold}); got != nil {
		t.Fatalf("empty query: %v, want nil", got)
	}
	if got := run(t, ix, []string{"zzz"}, QueryOpts{Threshold: DefaultThreshold}); got != nil {
		t.Fatalf("out-of-vocab query: %v, want nil", got)
	}
	for _, backend := range Backends() {
		for i, s := range engineScores(t, ix, []string{"zzz"}, backend) {
			if s != 0 {
				t.Fatalf("%s out-of-vocab score[%d] = %v, want 0", backend, i, s)
			}
		}
	}
}

// TestConcurrentQueriesShareScratch: queries racing on one index each draw
// their own pooled accumulator, and an accumulator comes back to the pool
// clean, so every query returns what it returns alone.
func TestConcurrentQueriesShareScratch(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(83))
	ix := BuildFromTerms(randomTermLists(rng, 80), nil)
	type tc struct {
		terms []string
		o     QueryOpts
		want  []Match
	}
	var cases []tc
	for _, q := range diffQueries {
		for _, backend := range Backends() {
			for _, threshold := range []float64{-1, DefaultThreshold} {
				o := QueryOpts{Backend: backend, Threshold: threshold}
				cases = append(cases, tc{strings.Fields(q), o, run(t, ix, strings.Fields(q), o)})
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c := cases[(g+i)%len(cases)]
				got, err := ix.Query(context.Background(), c.terms, c.o)
				if err != nil || !matchesEqual(got, c.want) {
					t.Errorf("goroutine %d query %v %+v: %v (err %v), want %v", g, c.terms, c.o, got, err, c.want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestServedMask pins what a served mask changes and what it keeps: only
// served documents have postings (and the postings counter advances by
// exactly the ones walked), while the vocabulary, the IDF tables and the
// query norm still cover every document — "d" occurs only in the unserved
// document, yet it weighs in the norm of a query that names it.
func TestServedMask(t *testing.T) {
	lists := [][]string{{"a", "b"}, {"a", "c", "d"}, {"c"}}
	served := []bool{true, false, true}
	all := BuildFromTerms(lists, nil)
	ix := BuildFromTerms(lists, served)
	if len(ix.vocab) != len(all.vocab) || ix.n != all.n {
		t.Fatalf("vocab %d n %d, want %d and %d", len(ix.vocab), ix.n, len(all.vocab), all.n)
	}
	for term, id := range all.vocab {
		if ix.vocab[term] != id || math.Float64bits(ix.idf[id]) != math.Float64bits(all.idf[id]) {
			t.Fatalf("term %q statistics differ", term)
		}
	}
	before := postingsScored.Value()
	got := run(t, ix, []string{"a", "c"}, QueryOpts{Threshold: -1})
	if walked := postingsScored.Value() - before; walked != 2 {
		t.Fatalf("%d postings walked, want 2 (one served posting each for a and c)", walked)
	}
	if len(got) != 2 || got[0].Index == 1 || got[1].Index == 1 {
		t.Fatalf("matches %+v, want the two served documents", got)
	}
	sameMatches(t, "global norm",
		run(t, ix, []string{"b", "d"}, QueryOpts{Threshold: -1}),
		maskedOracle(all, served, []string{"b", "d"}, BackendVSM, -1))
}

// TestBuildLimits: a misaligned mask is a caller bug and panics.
func TestBuildLimits(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("misaligned mask: no panic")
		}
	}()
	BuildFromTerms([][]string{{"a"}, {"b"}}, []bool{true})
}

// TestTracedScoring: under a recorded span both backends score exactly as
// untraced, and the trace holds one vsm.score span per query naming its
// backend.
func TestTracedScoring(t *testing.T) {
	ix := BuildFromTerms(randomTermLists(rand.New(rand.NewSource(73)), 20), nil)
	tracer := obs.NewTracer(1.0, obs.NewTraceStore(obs.DefaultTraceCapacity))
	terms := []string{"term03", "term17", "common"}
	sctx, root := tracer.Start(context.Background(), "test.query")
	for _, backend := range Backends() {
		o := QueryOpts{Backend: backend, Threshold: -1}
		got, err := ix.Query(sctx, terms, o)
		if err != nil {
			t.Fatal(err)
		}
		sameMatches(t, "traced "+backend, got, run(t, ix, terms, o))
	}
	root.Finish()
	tr, ok := tracer.Store().Get(obs.TraceID(sctx))
	if !ok {
		t.Fatal("trace not recorded")
	}
	var backends []string
	for _, sp := range tr.Root.Children {
		if sp.Name != "vsm.score" || len(sp.Children) != 0 {
			t.Fatalf("root child %q with %d children, want a vsm.score leaf", sp.Name, len(sp.Children))
		}
		for _, a := range sp.Attrs {
			if a.Key == "backend" {
				backends = append(backends, a.Value)
			}
		}
	}
	if fmt.Sprint(backends) != "[vsm bm25]" {
		t.Fatalf("traced span backends %v, want [vsm bm25]", backends)
	}
}

// TestTopK: the first k matches are the k best the oracle finds.
func TestTopK(t *testing.T) {
	ix := Build(corpus)
	terms := textproc.NormalizeTerms("memory")
	m := prefix(run(t, ix, terms, QueryOpts{}), 2)
	if len(m) > 2 {
		t.Errorf("TopK returned %d matches", len(m))
	}
	sameMatches(t, "top 2", m, prefix(denseMatches(ix, terms, BackendVSM, 0), 2))
}

func TestLenAndVocab(t *testing.T) {
	ix := Build(corpus)
	if ix.n != len(corpus) {
		t.Errorf("Len = %d", ix.n)
	}
	if len(ix.vocab) == 0 {
		t.Error("empty vocabulary")
	}
}

func TestEmptyIndex(t *testing.T) {
	ix := Build(nil)
	if ix.n != 0 {
		t.Error("empty index has nonzero len")
	}
	if got := query(t, ix, "anything", QueryOpts{}); len(got) != 0 {
		t.Errorf("empty index matched: %v", got)
	}
}

// Property: cosine similarity is symmetric and within [0, 1+eps] for
// nonnegative TF-IDF vectors.
func TestCosineProperties(t *testing.T) {
	ix := Build(corpus)
	texts := append([]string{}, corpus...)
	texts = append(texts, "memory", "warp divergence", "")
	f := func(i, j uint8) bool {
		a := texts[int(i)%len(texts)]
		b := texts[int(j)%len(texts)]
		sab := cosine(ix, a, b)
		sba := cosine(ix, b, a)
		if math.Abs(sab-sba) > 1e-12 {
			return false
		}
		return sab >= -1e-12 && sab <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: every score the engine returns is reproduced by the dense
// oracle.
func TestQueryScoresConsistent(t *testing.T) {
	ix := Build(corpus)
	for _, q := range []string{"shared memory", "register usage compiler"} {
		terms := textproc.NormalizeTerms(q)
		dense := denseScores(ix, terms, BackendVSM)
		for _, m := range run(t, ix, terms, QueryOpts{Threshold: 0.01}) {
			if math.Abs(dense[m.Index]-m.Score) > 1e-12 {
				t.Errorf("inconsistent score for %d", m.Index)
			}
		}
	}
}

func BenchmarkBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Build(corpus)
	}
}

func BenchmarkQuery(b *testing.B) {
	ix := Build(corpus)
	terms := textproc.NormalizeTerms("how to avoid shared memory bank conflicts")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		run(b, ix, terms, QueryOpts{Threshold: DefaultThreshold})
	}
}
