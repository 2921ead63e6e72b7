package vsm

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/textproc"
)

// Differential tests of the engine against the dense oracle: masks,
// permutations, ties and top-k cuts must all reproduce the oracle's
// matches bit for bit, and a zero-overlap query scores zero everywhere.

var diffSentences = []string{
	"Use shared memory to reduce global memory traffic.",
	"Avoid bank conflicts when accessing shared memory banks.",
	"Coalesce global memory accesses for maximum bandwidth.",
	"Minimize divergent branches within a warp.",
	"Overlap data transfers with kernel execution using streams.",
	"Prefer single precision arithmetic when accuracy permits.",
	"Occupancy depends on registers and shared memory per block.",
}

// diffQueries are pre-normalized queries over randomTermLists corpora:
// in-vocabulary, out-of-vocabulary, zero-IDF ("common" is in every
// generated document) and repeated terms.
var diffQueries = []string{
	"term03 term17 common",
	"term00",
	"common term29 term29",
	"term34 term05",
	"nosuchterm",
}

// TestScorerBackends: the one scoring model answers to the empty name and
// to "vsm"; every other name, "bm25" included, is refused.
func TestScorerBackends(t *testing.T) {
	for _, name := range []string{"", "vsm"} {
		if !ValidBackend(name) {
			t.Errorf("ValidBackend(%q) = false", name)
		}
	}
	for _, name := range []string{"bm25", "BM25", "tfidf", "VSM", " vsm", "nope"} {
		if ValidBackend(name) {
			t.Errorf("ValidBackend(%q) = true", name)
		}
	}
}

// TestMaskedBitIdentical: 100 random corpora, each with a random served
// mask, must produce Float64bits-identical matches to the dense oracle
// over an index of every document, filtered to the mask — at the serving
// thresholds and at thresholds <= 0, which admit every served document.
func TestMaskedBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for round := 0; round < 100; round++ {
		termLists := randomTermLists(rng, 3+rng.Intn(40))
		served := randomMask(rng, len(termLists))
		all := BuildFromTerms(termLists, nil)
		ix := BuildFromTerms(termLists, served)
		if ix.n != all.n {
			t.Fatalf("round %d: Len %d vs %d", round, ix.n, all.n)
		}
		q := strings.Fields(diffQueries[round%len(diffQueries)])
		sameAsMaskedOracle(t, fmt.Sprintf("round %d query %q", round, q), ix, all, served, q)
	}
}

// TestPermutationInvariance: permuting the document order permutes the
// scores and nothing else — every diff query scores each document
// bit-identically.
func TestPermutationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for round := 0; round < 25; round++ {
		termLists := randomTermLists(rng, 5+rng.Intn(30))
		perm := rng.Perm(len(termLists))
		permLists := make([][]string, len(termLists))
		for newPos, oldPos := range perm {
			permLists[newPos] = termLists[oldPos]
		}
		orig := BuildFromTerms(termLists, nil)
		shuf := BuildFromTerms(permLists, nil)
		for _, q := range diffQueries {
			os := engineScores(orig, strings.Fields(q))
			ss := engineScores(shuf, strings.Fields(q))
			for newPos, oldPos := range perm {
				if math.Float64bits(ss[newPos]) != math.Float64bits(os[oldPos]) {
					t.Fatalf("round %d %q: permuted doc %d (was %d): %x vs %x",
						round, q, newPos, oldPos, ss[newPos], os[oldPos])
				}
			}
		}
	}
}

// TestTieOrderMatchesOracle: duplicated documents score identically at
// distinct indices, so the match lists hold exact ties; the full list at
// each threshold and its best-k prefixes must reproduce the dense oracle's
// exactly — same indices, same score bits, ties by ascending index.
func TestTieOrderMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for round := 0; round < 40; round++ {
		termLists := randomTermLists(rng, 4+rng.Intn(24))
		for d := 0; d < 3; d++ {
			termLists = append(termLists, termLists[rng.Intn(len(termLists))])
		}
		ix := BuildFromTerms(termLists, nil)
		for _, q := range diffQueries {
			for _, threshold := range []float64{DefaultThreshold, 0.01, 0} {
				got := run(ix, strings.Fields(q), threshold)
				want := denseMatches(ix, strings.Fields(q), threshold)
				label := fmt.Sprintf("round %d (%q,%v)", round, q, threshold)
				for _, k := range []int{0, 1, 3, 10, 1000} {
					sameMatches(t, fmt.Sprintf("%s top %d", label, k), prefix(got, k), prefix(want, k))
				}
			}
		}
	}
}

// TestSortMatchesEdges pins the total match order sortMatches puts the
// accumulator's unsorted matches in — score descending, ties by index —
// and that a caller's top-k cut of it keeps the best.
func TestSortMatchesEdges(t *testing.T) {
	m := func(idx int, score float64) Match { return Match{Index: idx, Score: score} }
	cases := []struct {
		name string
		in   []Match
		k    int
		want []Match
	}{
		{"empty", nil, 0, nil},
		{"sorted passthrough", []Match{m(0, 0.9), m(2, 0.5)}, 0, []Match{m(0, 0.9), m(2, 0.5)}},
		{"interleave", []Match{m(1, 0.8), m(3, 0.2), m(0, 0.9), m(2, 0.5)}, 0,
			[]Match{m(0, 0.9), m(1, 0.8), m(2, 0.5), m(3, 0.2)}},
		{"tie resolves by index", []Match{m(5, 0.7), m(2, 0.7)}, 0, []Match{m(2, 0.7), m(5, 0.7)}},
		{"k truncates", []Match{m(1, 0.8), m(0, 0.9), m(2, 0.5)}, 2, []Match{m(0, 0.9), m(1, 0.8)}},
		{"k larger than total", []Match{m(1, 0.8)}, 10, []Match{m(1, 0.8)}},
	}
	for _, tc := range cases {
		got := append([]Match(nil), tc.in...)
		sortMatches(got)
		got = prefix(got, tc.k)
		if len(got) != len(tc.want) {
			t.Fatalf("%s: %d matches, want %d", tc.name, len(got), len(tc.want))
		}
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Fatalf("%s: match %d = %+v, want %+v", tc.name, i, got[i], tc.want[i])
			}
		}
	}
}

// TestTopMatchesVecEqualsSortTruncate: cutting the engine's list to its
// best k equals sorting the oracle's scores and truncating.
func TestTopMatchesVecEqualsSortTruncate(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for round := 0; round < 30; round++ {
		ix := BuildFromTerms(randomTermLists(rng, 5+rng.Intn(30)), nil)
		q := strings.Fields(diffQueries[round%len(diffQueries)])
		for _, threshold := range []float64{0, 0.01, DefaultThreshold} {
			full := run(ix, q, threshold)
			dense := denseMatches(ix, q, threshold)
			for _, k := range []int{1, 2, 5, 100} {
				sameMatches(t, fmt.Sprintf("round %d k=%d th=%v", round, k, threshold),
					prefix(full, k), prefix(dense, k))
			}
		}
	}
}

// TestBackendsAgreeOnZeroOverlap: a query sharing no term with the guide
// scores zero on every document.
func TestBackendsAgreeOnZeroOverlap(t *testing.T) {
	ix := Build(diffSentences)
	terms := textproc.NormalizeTerms("quantum chromodynamics lattice pasta")
	for d, s := range engineScores(ix, terms) {
		if s != 0 {
			t.Errorf("zero-overlap query scored doc %d at %v, want 0", d, s)
		}
	}
}

// TestScorerVSMBitIdentical: every document's engine score is bit-for-bit
// the dense oracle's, and every thresholded match score equals the
// corresponding dense score exactly.
func TestScorerVSMBitIdentical(t *testing.T) {
	ix := Build(diffSentences)
	queries := []string{
		"shared memory bank conflicts",
		"global memory bandwidth",
		"divergent warp execution",
		"transfer overlap streams",
	}
	for _, q := range queries {
		terms := textproc.NormalizeTerms(q)
		direct := denseScores(ix, terms)
		sameScores(t, fmt.Sprintf("q=%q", q), engineScores(ix, terms), direct)
		for _, m := range run(ix, terms, DefaultThreshold) {
			if math.Float64bits(m.Score) != math.Float64bits(direct[m.Index]) {
				t.Fatalf("q=%q: Query score %v != dense score %v at doc %d", q, m.Score, direct[m.Index], m.Index)
			}
		}
	}
}

// TestUniversalTermBackendSplit pins the zero-weight-postings design: a term
// in every document has IDF 0 under TF-IDF, so it is invisible to cosine.
func TestUniversalTermBackendSplit(t *testing.T) {
	docs := []string{
		"memory memory tiling",
		"memory layout",
		"memory prefetch distance",
	}
	ix := Build(docs)
	for d, s := range engineScores(ix, []string{"memori"}) {
		if s > 0 {
			t.Errorf("a df==N term scored doc %d at %v", d, s)
		}
	}
}

// TestTopKEdgeCases drives the engine through the cuts a caller makes
// on the match list — non-positive k (keep everything), k = 1, k past the
// match count — and score ties: each prefix must be the oracle's, sorted
// best first with ties by ascending index.
func TestTopKEdgeCases(t *testing.T) {
	ix := Build(diffSentences)
	terms := textproc.NormalizeTerms("shared memory")
	cases := []struct {
		name string
		k    int
		want func(n int) bool // accepts the returned length
	}{
		{"k negative", -3, func(n int) bool { return n == len(diffSentences) }},
		{"k zero", 0, func(n int) bool { return n == len(diffSentences) }},
		{"k one", 1, func(n int) bool { return n == 1 }},
		{"k huge", 1000, func(n int) bool { return n >= 1 && n <= len(diffSentences) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := prefix(run(ix, terms, 0), tc.k)
			if !tc.want(len(got)) {
				t.Errorf("top %d returned %d matches", tc.k, len(got))
			}
			sameMatches(t, tc.name, got, prefix(denseMatches(ix, terms, 0), tc.k))
		})
	}
	// ties break by ascending index, and results are sorted best-first
	matches := run(ix, terms, 0)
	for i := 1; i < len(matches); i++ {
		prev, cur := matches[i-1], matches[i]
		if cur.Score > prev.Score {
			t.Fatalf("not sorted: %v", matches)
		}
		if cur.Score == prev.Score && cur.Index < prev.Index {
			t.Fatalf("tie not broken by index: %v", matches)
		}
	}
	// identical duplicate docs are an exact tie; order must be by index
	dup := Build([]string{"tune the block size", "tune the block size", "unrelated text"})
	m := prefix(query(dup, "block size", 0), 2)
	if len(m) != 2 || m[0].Index != 0 || m[1].Index != 1 {
		t.Errorf("duplicate-doc tie order: %v", m)
	}
	if m[0].Score != m[1].Score {
		t.Errorf("identical docs scored differently: %v vs %v", m[0].Score, m[1].Score)
	}
}
