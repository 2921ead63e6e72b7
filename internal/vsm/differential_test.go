package vsm

import (
	"math"
	"runtime"
	"sort"
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

// TestSerialScoringBitIdentical: the batch executor's serial-scoring option
// must not change a single bit of any score.
func TestSerialScoringBitIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	terms := make([][]string, len(diffSentences))
	for i, s := range diffSentences {
		terms[i] = textproc.NormalizeTerms(s)
	}
	ix := BuildFromTerms(terms, nil, nil, 3)
	q := textproc.NormalizeTerms("shared memory global bandwidth warp")
	for _, backend := range Backends() {
		o := QueryOpts{Backend: backend, Threshold: -1}
		par := run(t, ix, q, o)
		o.Serial = true
		sameMatches(t, backend+" serial vs parallel", run(t, ix, q, o), par)
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
