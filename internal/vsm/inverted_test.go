package vsm

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/textproc"
)

// randomCorpus builds n pseudo-sentences over a small shared vocabulary so
// that queries overlap some, but not all, documents.
func randomCorpus(rng *rand.Rand, n int) []string {
	vocab := []string{
		"memory", "thread", "warp", "kernel", "latency", "bandwidth",
		"cache", "register", "occupancy", "divergence", "coalescing",
		"vector", "loop", "unroll", "block", "shared", "global", "atomic",
		"prefetch", "alignment", "throughput", "instruction", "barrier",
		"stream", "transfer", "optimize", "reduce", "avoid", "performance",
	}
	out := make([]string, n)
	for i := range out {
		k := 3 + rng.Intn(9)
		words := make([]string, k)
		for j := range words {
			words[j] = vocab[rng.Intn(len(vocab))]
		}
		out[i] = strings.Join(words, " ")
	}
	return out
}

// TestInvertedMatchesDenseScan checks that the postings accumulator
// returns exactly the dense oracle's match set — same documents, same
// order, bit-identical scores — on random corpora and queries.
func TestInvertedMatchesDenseScan(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		docs := randomCorpus(rng, 50+rng.Intn(200))
		ix := Build(docs)
		for trial := 0; trial < 25; trial++ {
			q := textproc.NormalizeTerms(randomCorpus(rng, 1)[0])
			for _, threshold := range []float64{DefaultThreshold, 0.01, 0.5} {
				fast := run(ix, q, threshold)
				dense := denseMatches(ix, q, threshold)
				if !matchesEqual(fast, dense) {
					t.Fatalf("seed %d trial %d threshold %v: inverted %v != dense %v (query %q)",
						seed, trial, threshold, fast, dense, q)
				}
			}
		}
	}
}

// TestInvertedThresholdZeroFallsBackToDense: a non-positive threshold admits
// zero-score documents, which no posting list reaches — every document must
// come back, even for a query with no term in the vocabulary.
func TestInvertedThresholdZeroFallsBackToDense(t *testing.T) {
	docs := []string{
		"avoid shared memory bank conflicts",
		"unroll the innermost loop",
		"completely unrelated botany sentence about flowers",
	}
	ix := Build(docs)
	for _, q := range []string{"shared memory", "", "zyzzyva"} {
		if got := query(ix, q, 0); len(got) != len(docs) {
			t.Fatalf("%q: threshold 0 should score all %d documents, got %d: %v", q, len(docs), len(got), got)
		}
	}
}

// TestInvertedTopK: the best five matches agree with a truncated dense scan.
func TestInvertedTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	docs := randomCorpus(rng, 120)
	ix := Build(docs)
	for trial := 0; trial < 10; trial++ {
		q := textproc.NormalizeTerms(randomCorpus(rng, 1)[0])
		fast := prefix(run(ix, q, DefaultThreshold), 5)
		dense := prefix(denseMatches(ix, q, DefaultThreshold), 5)
		if !matchesEqual(fast, dense) {
			t.Fatalf("trial %d: top 5 %v != dense[:5] %v (query %q)", trial, fast, dense, q)
		}
	}
}

// TestPostingsCoverVectors: the postings are exactly the documents' term
// vectors — each (document, term) pair once, in strictly ascending document
// order per term, with the TF-IDF weight recomputed here from the
// document's counts and the global IDF table.
func TestPostingsCoverVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	docs := randomCorpus(rng, 80)
	terms := make([][]string, len(docs))
	for i, d := range docs {
		terms[i] = textproc.NormalizeTerms(d)
	}
	ix := BuildFromTerms(terms, nil)
	var nPostings, nEntries int
	for id := 0; id+1 < len(ix.start); id++ {
		last := int32(-1)
		for i := ix.start[id]; i < ix.start[id+1]; i++ {
			if ix.post[i] <= last {
				t.Fatalf("term %d postings not strictly ascending", id)
			}
			last = ix.post[i]
			nPostings++
		}
	}
	for pos, g := range ix.docs {
		tc := ix.counted[g]
		var norm float64
		for i, term := range tc.terms {
			w := tc.counts[i] * ix.idf[ix.vocab[term]]
			norm += w * w
		}
		for i, term := range tc.terms {
			id := ix.vocab[term]
			want := tc.counts[i] * ix.idf[id]
			if norm > 0 {
				want /= math.Sqrt(norm)
			}
			found := false
			for j := ix.start[id]; j < ix.start[id+1]; j++ {
				if ix.post[j] == int32(pos) {
					found = ix.w[j] == want
					break
				}
			}
			if !found {
				t.Fatalf("doc %d term %q (weight %v) missing from postings", g, term, want)
			}
			nEntries++
		}
	}
	if nPostings != nEntries {
		t.Fatalf("postings %d != vector entries %d", nPostings, nEntries)
	}
}

func ExampleIndex_Query_invertedEquivalence() {
	ix := Build([]string{
		"minimize data transfers between host and device",
		"use shared memory to reduce global memory traffic",
		"unrelated sentence about gardening",
	})
	q := textproc.NormalizeTerms("reduce memory transfers")
	fast := ix.Query(context.Background(), q, DefaultThreshold)
	dense := denseMatches(ix, q, DefaultThreshold)
	fmt.Println(matchesEqual(fast, dense))
	// Output: true
}
