package vsm

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"

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

// TestQueryAllMatchesSerial: scoring the partitions in parallel and one
// after another gives the same scores.
func TestQueryAllMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	terms := make([][]string, len(corpus))
	for i, s := range corpus {
		terms[i] = textproc.NormalizeTerms(s)
	}
	ix := BuildFromTerms(terms, nil, nil, 3)
	for _, q := range []string{"memory bandwidth", "divergent warps", "loop unrolling"} {
		all := QueryOpts{Threshold: -1}
		par := query(t, ix, q, all)
		all.Serial = true
		ser := query(t, ix, q, all)
		if len(par) != len(ser) {
			t.Fatalf("length mismatch %d vs %d", len(par), len(ser))
		}
		for i := range par {
			if par[i].Index != ser[i].Index || math.Abs(par[i].Score-ser[i].Score) > 1e-12 {
				t.Errorf("q=%q rank %d: parallel %+v != serial %+v", q, i, par[i], ser[i])
			}
		}
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
