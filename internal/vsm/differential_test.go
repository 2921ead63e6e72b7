package vsm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/textproc"
)

// Differential tests between the two scoring backends: properties that must
// hold regardless of backend (zero-overlap queries score zero everywhere),
// bit-exactness of the backend selector against the dense oracle, and
// agreement of the shared-postings BM25 with a from-scratch reference
// implementation.

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

// TestScorerBackends: both backend names and the empty default score; any
// other name is ErrUnknownBackend.
func TestScorerBackends(t *testing.T) {
	ix := BuildFromTerms([][]string{{"a"}, {"b"}}, nil)
	for _, backend := range []string{"", BackendVSM, BackendBM25} {
		if _, err := ix.Query(t.Context(), []string{"a"}, QueryOpts{Backend: backend}); err != nil {
			t.Fatalf("backend %q: %v", backend, err)
		}
	}
	if _, err := ix.Query(t.Context(), []string{"a"}, QueryOpts{Backend: "tfidf2"}); !errors.Is(err, ErrUnknownBackend) {
		t.Fatalf("unknown backend error = %v, want ErrUnknownBackend", err)
	}
	if !ValidBackend(BackendBM25) || !ValidBackend("") || ValidBackend("nope") {
		t.Fatal("ValidBackend broken")
	}
}

// TestMaskedBitIdentical: 100 random corpora, each with a random served
// mask, must produce Float64bits-identical matches for both backends to the
// dense oracle over an index of every document, filtered to the mask — at
// the serving thresholds and at thresholds <= 0, which admit every served
// document.
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
// bit-identically under both backends.
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
			for _, backend := range Backends() {
				os := engineScores(t, orig, strings.Fields(q), backend)
				ss := engineScores(t, shuf, strings.Fields(q), backend)
				for newPos, oldPos := range perm {
					if math.Float64bits(ss[newPos]) != math.Float64bits(os[oldPos]) {
						t.Fatalf("round %d %s %q: permuted doc %d (was %d): %x vs %x",
							round, backend, q, newPos, oldPos, ss[newPos], os[oldPos])
					}
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
			for _, backend := range Backends() {
				for _, threshold := range []float64{DefaultThreshold, 0.01, 0} {
					got := run(t, ix, strings.Fields(q), QueryOpts{Backend: backend, Threshold: threshold})
					want := denseMatches(ix, strings.Fields(q), backend, threshold)
					label := fmt.Sprintf("round %d %s(%q,%v)", round, backend, q, threshold)
					for _, k := range []int{0, 1, 3, 10, 1000} {
						sameMatches(t, fmt.Sprintf("%s top %d", label, k), prefix(got, k), prefix(want, k))
					}
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
			for _, backend := range Backends() {
				full := run(t, ix, q, QueryOpts{Backend: backend, Threshold: threshold})
				dense := denseMatches(ix, q, backend, threshold)
				for _, k := range []int{1, 2, 5, 100} {
					sameMatches(t, fmt.Sprintf("round %d %s k=%d th=%v", round, backend, k, threshold),
						prefix(full, k), prefix(dense, k))
				}
			}
		}
	}
}

func TestBackendsAgreeOnZeroOverlap(t *testing.T) {
	ix := Build(diffSentences)
	terms := textproc.NormalizeTerms("quantum chromodynamics lattice pasta")
	for _, backend := range Backends() {
		for d, s := range engineScores(t, ix, terms, backend) {
			if s != 0 {
				t.Errorf("%s: zero-overlap query scored doc %d at %v, want 0", backend, d, s)
			}
		}
	}
}

// TestScorerVSMBitIdentical pins the backend selector: scoring with
// Backend "vsm" and its "" default spelling is bit-for-bit the dense
// oracle, and every thresholded match score equals the corresponding dense
// score exactly.
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
		direct := denseScores(ix, terms, BackendVSM)
		for _, spelling := range []string{"", BackendVSM} {
			viaBackend := engineScores(t, ix, terms, spelling)
			for d := range direct {
				if math.Float64bits(direct[d]) != math.Float64bits(viaBackend[d]) {
					t.Fatalf("q=%q spelling=%q doc %d: direct %x via-backend %x",
						q, spelling, d, math.Float64bits(direct[d]), math.Float64bits(viaBackend[d]))
				}
			}
		}
		for _, m := range run(t, ix, terms, QueryOpts{Threshold: DefaultThreshold}) {
			if math.Float64bits(m.Score) != math.Float64bits(direct[m.Index]) {
				t.Fatalf("q=%q: Query score %v != dense score %v at doc %d", q, m.Score, direct[m.Index], m.Index)
			}
		}
	}
}

// naiveBM25 recomputes Okapi BM25 from the raw sentences with none of the
// index's machinery — its own tokenization pass, df counts and length table
// — as an independent reference for the shared-postings implementation.
func naiveBM25(sentences []string, query string, k1, b float64) []float64 {
	docTerms := make([][]string, len(sentences))
	lens := make([]float64, len(sentences))
	var total float64
	for i, s := range sentences {
		docTerms[i] = textproc.NormalizeTerms(s)
		lens[i] = float64(len(docTerms[i]))
		total += lens[i]
	}
	avg := total / float64(len(sentences))
	df := map[string]int{}
	for _, terms := range docTerms {
		seen := map[string]bool{}
		for _, t := range terms {
			if !seen[t] {
				seen[t] = true
				df[t]++
			}
		}
	}
	n := float64(len(sentences))
	qset := map[string]bool{}
	var qterms []string
	for _, t := range textproc.NormalizeTerms(query) {
		if !qset[t] && df[t] > 0 {
			qset[t] = true
			qterms = append(qterms, t)
		}
	}
	sort.Strings(qterms)
	out := make([]float64, len(sentences))
	for _, qt := range qterms {
		idf := math.Log((n-float64(df[qt])+0.5)/(float64(df[qt])+0.5) + 1)
		for d, terms := range docTerms {
			tf := 0.0
			for _, t := range terms {
				if t == qt {
					tf++
				}
			}
			if tf == 0 {
				continue
			}
			norm := k1 * (1 - b + b*lens[d]/avg)
			out[d] += idf * tf * (k1 + 1) / (tf + norm)
		}
	}
	return out
}

func TestBM25MatchesNaiveReference(t *testing.T) {
	ix := Build(diffSentences)
	for _, q := range []string{
		"shared memory bank conflicts",
		"global memory coalescing bandwidth",
		"warp divergence",
		"memory memory memory", // duplicate query terms count once
	} {
		got := engineScores(t, ix, textproc.NormalizeTerms(q), BackendBM25)
		want := naiveBM25(diffSentences, q, bm25K1, bm25B)
		for d := range want {
			if math.Abs(got[d]-want[d]) > 1e-12 {
				t.Errorf("q=%q doc %d: shared-postings %v, naive reference %v", q, d, got[d], want[d])
			}
		}
	}
}

// TestUniversalTermBackendSplit pins the zero-weight-postings design: a term
// in every document has IDF 0 under TF-IDF (invisible to cosine) but a
// small positive Okapi IDF, so only BM25 can rank by it.
func TestUniversalTermBackendSplit(t *testing.T) {
	docs := []string{
		"memory memory tiling",
		"memory layout",
		"memory prefetch distance",
	}
	ix := Build(docs)
	if scores := engineScores(t, ix, []string{"memori"}, BackendVSM); anyPositive(scores) {
		t.Errorf("VSM scored a df==N term: %v", scores)
	}
	bm := engineScores(t, ix, []string{"memori"}, BackendBM25)
	if !anyPositive(bm) {
		t.Errorf("BM25 ignored a df==N term: %v", bm)
	}
	// doc 0 has tf=2 for the term: BM25's tf saturation must still rank it
	// at least as high as the tf=1 docs of similar length
	if bm[0] <= 0 || bm[0] < bm[1]*0.99 {
		t.Errorf("BM25 tf weighting off: %v", bm)
	}
}

func anyPositive(s []float64) bool {
	for _, v := range s {
		if v > 0 {
			return true
		}
	}
	return false
}

// TestTopKEdgeCases drives both backends through the cuts a caller makes
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
			for _, backend := range Backends() {
				got := prefix(run(t, ix, terms, QueryOpts{Backend: backend}), tc.k)
				if !tc.want(len(got)) {
					t.Errorf("%s top %d returned %d matches", backend, tc.k, len(got))
				}
				sameMatches(t, backend, got, prefix(denseMatches(ix, terms, backend, 0), tc.k))
			}
		})
	}
	// ties break by ascending index, and results are sorted best-first
	for _, backend := range Backends() {
		matches := run(t, ix, terms, QueryOpts{Backend: backend})
		for i := 1; i < len(matches); i++ {
			prev, cur := matches[i-1], matches[i]
			if cur.Score > prev.Score {
				t.Fatalf("not sorted: %v", matches)
			}
			if cur.Score == prev.Score && cur.Index < prev.Index {
				t.Fatalf("tie not broken by index: %v", matches)
			}
		}
	}
	// identical duplicate docs are an exact tie; order must be by index
	dup := Build([]string{"tune the block size", "tune the block size", "unrelated text"})
	m := prefix(query(t, dup, "block size", QueryOpts{}), 2)
	if len(m) != 2 || m[0].Index != 0 || m[1].Index != 1 {
		t.Errorf("duplicate-doc tie order: %v", m)
	}
	if m[0].Score != m[1].Score {
		t.Errorf("identical docs scored differently: %v vs %v", m[0].Score, m[1].Score)
	}
}
