package vsm

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/textproc"
)

// FuzzTopKParity fuzzes the retrieval engine against the dense oracle: the
// engine's matches at any threshold (including NaN, infinities, and <= 0,
// which admit zero-score documents), truncated to their best k, must
// reproduce the oracle's sort-then-truncate list Float64bits-exactly, for
// arbitrary corpora and queries, serving every sentence and serving only
// the sentences of odd byte length. k <= 0 keeps every match, the served shape.
// Seeds live in testdata/fuzz/FuzzTopKParity (guide sentences × guide
// queries; regenerate with `go run ./tools/fuzzseed`).
func FuzzTopKParity(f *testing.F) {
	f.Add("alpha beta\nbeta gamma\ngamma delta beta\nalpha alpha", "alpha gamma", 3, 0.15)
	f.Add("", "anything", 1, 0.15)
	f.Add("same words here\nsame words here\nsame words here", "same words", 2, 0.0)
	f.Add("tuning threads\nwarp divergence\nmemory coalescing", "warp memory", 10, -1.0)
	f.Add("a b c\nb c d\nc d e\nd e f", "c", 0, 0.5)

	f.Fuzz(func(t *testing.T, blob, query string, k int, threshold float64) {
		if len(blob) > 1<<16 || len(query) > 1<<10 {
			return
		}
		sentences := strings.Split(blob, "\n")
		if len(sentences) > 96 {
			sentences = sentences[:96]
		}
		n := len(sentences)
		if k > 2*n+4 {
			k = k % (2*n + 5)
		}
		termLists := make([][]string, n)
		for i, s := range sentences {
			termLists[i] = textproc.NormalizeTerms(s)
		}
		odd := make([]bool, n)
		for i, s := range sentences {
			odd[i] = len(s)%2 == 1
		}
		// the oracle scores from a build of every sentence, so weights that
		// drifted with the mask would show too
		ref := BuildFromTerms(termLists, nil)
		terms := textproc.NormalizeTerms(query)
		for _, served := range [][]bool{nil, odd} {
			ix := BuildFromTerms(termLists, served)
			got := prefix(run(ix, terms, threshold), k)
			want := prefix(maskedOracle(ref, served, terms, threshold), k)
			sameMatches(t, fmt.Sprintf("masked=%v", served != nil), got, want)
		}
	})
}
