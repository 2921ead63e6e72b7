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
// both backends, for arbitrary corpora, queries and partition counts 0-8
// (0 builds one partition), serving every sentence and serving only the
// sentences of odd byte length. k <= 0 keeps every match, the served shape.
// Seeds live in testdata/fuzz/FuzzTopKParity (guide sentences × guide
// queries; regenerate with `go run ./tools/fuzzseed`).
func FuzzTopKParity(f *testing.F) {
	f.Add("alpha beta\nbeta gamma\ngamma delta beta\nalpha alpha", "alpha gamma", 3, 0.15, 2)
	f.Add("", "anything", 1, 0.15, 1)
	f.Add("same words here\nsame words here\nsame words here", "same words", 2, 0.0, 4)
	f.Add("tuning threads\nwarp divergence\nmemory coalescing", "warp memory", 10, -1.0, 8)
	f.Add("a b c\nb c d\nc d e\nd e f", "c", 0, 0.5, 3)

	f.Fuzz(func(t *testing.T, blob, query string, k int, threshold float64, nShards int) {
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
		parts := nShards % 9
		if parts < 0 {
			parts = -parts
		}
		termLists := make([][]string, n)
		for i, s := range sentences {
			termLists[i] = textproc.NormalizeTerms(s)
		}
		odd := make([]bool, n)
		for i, s := range sentences {
			odd[i] = len(s)%2 == 1
		}
		// the oracle scores from a one-partition build of every sentence, so
		// weights that drifted with the partition count or the mask would
		// show too
		ref := BuildFromTerms(termLists, nil, nil, 1)
		terms := textproc.NormalizeTerms(query)
		for _, served := range [][]bool{nil, odd} {
			ix := BuildFromTerms(termLists, nil, served, parts)
			for _, backend := range Backends() {
				got := prefix(run(t, ix, terms, QueryOpts{Backend: backend, Threshold: threshold}), k)
				want := prefix(maskedOracle(ref, served, terms, backend, threshold), k)
				sameMatches(t, fmt.Sprintf("%s parts=%d masked=%v", backend, parts, served != nil), got, want)
			}
		}
	})
}
