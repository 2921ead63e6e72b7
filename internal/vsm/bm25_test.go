package vsm

import (
	"math"
	"testing"

	"repro/internal/textproc"
)

// bm25 is the BM25 serving cut: every positive score, best first.
var bm25 = QueryOpts{Backend: BackendBM25, Threshold: positive}

func TestBM25RelevanceOrdering(t *testing.T) {
	ix := Build(corpus)
	top := prefix(query(t, ix, "how to avoid shared memory bank conflicts", bm25), 3)
	if len(top) == 0 {
		t.Fatal("no matches")
	}
	if top[0].Index != 1 {
		t.Errorf("top match %d (%q), want 1", top[0].Index, corpus[top[0].Index])
	}
	for i := 1; i < len(top); i++ {
		if top[i].Score > top[i-1].Score {
			t.Error("not sorted")
		}
	}
}

func TestBM25NoOverlap(t *testing.T) {
	ix := Build(corpus)
	for _, s := range engineScores(t, ix, textproc.NormalizeTerms("zyzzyva quux"), BackendBM25) {
		if s != 0 {
			t.Errorf("score %f for vocab-free query", s)
		}
	}
	if got := query(t, ix, "", bm25); len(got) != 0 {
		t.Errorf("empty query matched: %v", got)
	}
}

func TestBM25ScoresNonNegative(t *testing.T) {
	ix := Build(corpus)
	for _, q := range []string{"memory", "divergent warps control flow", "register compiler"} {
		for i, s := range engineScores(t, ix, textproc.NormalizeTerms(q), BackendBM25) {
			if s < 0 || math.IsNaN(s) {
				t.Errorf("q=%q sentence %d score %f", q, i, s)
			}
		}
	}
}

func TestBM25LengthNormalization(t *testing.T) {
	// same term frequency, shorter document scores higher
	docs := []string{
		"coalesce the accesses",
		"coalesce the accesses while considering many other unrelated aspects of the launch configuration and the driver behavior",
	}
	ix := Build(docs)
	s := engineScores(t, ix, textproc.NormalizeTerms("coalesce accesses"), BackendBM25)
	if s[0] <= s[1] {
		t.Errorf("length normalization inverted: %f vs %f", s[0], s[1])
	}
}

func TestBM25EmptyIndex(t *testing.T) {
	ix := Build(nil)
	if got := engineScores(t, ix, textproc.NormalizeTerms("anything"), BackendBM25); len(got) != 0 {
		t.Errorf("empty index scored: %v", got)
	}
}

func BenchmarkBM25Query(b *testing.B) {
	ix := Build(corpus)
	terms := textproc.NormalizeTerms("how to avoid shared memory bank conflicts")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		run(b, ix, terms, bm25)
	}
}
