package vsm

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/textproc"
)

// The reference oracle the suites compare the engine against: a dense
// scorer that rebuilds every document's weight vector from the index's
// postings and scores each document with one sparse dot product, in
// ascending term-id order. It shares the per-document weights and the query
// vector with the engine and nothing else — no accumulator, no touched
// list, no threshold shortcut — so agreement pins the accumulation,
// filtering and ordering.

// positive is the threshold that admits exactly the positive scores (the
// BM25 serving cut).
const positive = math.SmallestNonzeroFloat64

// run scores pre-normalized terms with the engine, failing the test on an
// error.
func run(t testing.TB, ix *Index, terms []string, o QueryOpts) []Match {
	t.Helper()
	m, err := ix.Query(context.Background(), terms, o)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// query is run over raw query text.
func query(t testing.TB, ix *Index, q string, o QueryOpts) []Match {
	t.Helper()
	return run(t, ix, textproc.NormalizeTerms(q), o)
}

// engineScores runs the engine at a threshold that admits every document
// and scatters the matches into one score per document.
func engineScores(t testing.TB, ix *Index, terms []string, backend string) []float64 {
	t.Helper()
	out := make([]float64, ix.n)
	for _, m := range run(t, ix, terms, QueryOpts{Backend: backend, Threshold: math.Inf(-1)}) {
		out[m.Index] = m.Score
	}
	return out
}

// docVectors gathers every document's weight vector under weighting wt from
// the postings, entries in ascending term id, indexed by document ordinal.
func docVectors(ix *Index, wt int) [][]term {
	vecs := make([][]term, ix.n)
	for id := 0; id+1 < len(ix.start); id++ {
		for i := ix.start[id]; i < ix.start[id+1]; i++ {
			g := ix.docs[ix.post[i]]
			vecs[g] = append(vecs[g], term{id: id, w: ix.w[wt][i]})
		}
	}
	return vecs
}

// dot is the sparse dot product of two vectors sorted by term id.
func dot(a, b []term) float64 {
	var s float64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].id == b[j].id:
			s += a[i].w * b[j].w
			i++
			j++
		case a[i].id < b[j].id:
			i++
		default:
			j++
		}
	}
	return s
}

// denseScores is the oracle: every document's score under the backend.
func denseScores(ix *Index, terms []string, backend string) []float64 {
	wt, err := weightingOf(backend)
	if err != nil {
		panic(err)
	}
	qv := ix.queryVector(terms, wt)
	out := make([]float64, ix.n)
	for d, v := range docVectors(ix, wt) {
		out[d] = dot(v, qv)
	}
	return out
}

// denseMatches is the oracle's match list: every document at or above the
// threshold, sorted by the total match order with the standard library's
// sort rather than the engine's.
func denseMatches(ix *Index, terms []string, backend string, threshold float64) []Match {
	var out []Match
	for d, s := range denseScores(ix, terms, backend) {
		if s >= threshold {
			out = append(out, Match{Index: d, Score: s})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		return out[a].Index < out[b].Index
	})
	return out
}

// maskedOracle is the reference for an index serving a subset of the
// documents: the dense oracle's matches over an index of every document
// (same documents, nil mask), kept where served is set. A nil mask keeps
// every match.
func maskedOracle(all *Index, served []bool, terms []string, backend string, threshold float64) []Match {
	var out []Match
	for _, m := range denseMatches(all, terms, backend, threshold) {
		if served == nil || served[m.Index] {
			out = append(out, m)
		}
	}
	return out
}

// randomMask draws a served mask over n documents: nil (every document
// served) one time in four, otherwise each document served with
// probability one half, so empty and full masks occur on small corpora.
func randomMask(rng *rand.Rand, n int) []bool {
	if rng.Intn(4) == 0 {
		return nil
	}
	served := make([]bool, n)
	for i := range served {
		served[i] = rng.Intn(2) == 0
	}
	return served
}

// maskThresholds are the thresholds the mask differentials run at: the
// VSM and BM25 serving cuts, and the cuts at or below zero that admit
// every served document.
var maskThresholds = []float64{DefaultThreshold, positive, 0, -1, math.Inf(-1)}

// sameAsMaskedOracle checks a served index against maskedOracle for both
// backends at every mask threshold.
func sameAsMaskedOracle(t *testing.T, label string, ix, all *Index, served []bool, terms []string) {
	t.Helper()
	for _, backend := range Backends() {
		for _, threshold := range maskThresholds {
			sameMatches(t, fmt.Sprintf("%s %s@%v", label, backend, threshold),
				run(t, ix, terms, QueryOpts{Backend: backend, Threshold: threshold}),
				maskedOracle(all, served, terms, backend, threshold))
		}
	}
}

// prefix truncates a match list to its k best; k <= 0 keeps every match.
func prefix(m []Match, k int) []Match {
	if k > 0 && len(m) > k {
		return m[:k]
	}
	return m
}

// idfOf returns the TF-IDF IDF of a term (0 if unknown).
func idfOf(ix *Index, t string) float64 {
	if id, ok := ix.vocab[t]; ok {
		return ix.idf[id]
	}
	return 0
}

// cosine is the cosine similarity of two raw texts under the index's TF-IDF
// weights.
func cosine(ix *Index, a, b string) float64 {
	return dot(ix.queryVector(textproc.NormalizeTerms(a), wVSM), ix.queryVector(textproc.NormalizeTerms(b), wVSM))
}

func sameMatches(t *testing.T, label string, got, want []Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches vs %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Index != want[i].Index || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: match %d: (%d, %x) vs (%d, %x)",
				label, i, got[i].Index, got[i].Score, want[i].Index, want[i].Score)
		}
	}
}

func sameScores(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: score lengths %d vs %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: doc %d: %x vs %x", label, i, got[i], want[i])
		}
	}
}

func matchesEqual(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Index != b[i].Index || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}
