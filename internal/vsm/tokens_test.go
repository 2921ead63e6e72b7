package vsm

import (
	"math/rand"
	"testing"

	"repro/internal/textproc"
)

// tokenTestSentences exercises the normalization edge cases: stopwords,
// punctuation runs, identifiers, clitics and numbers.
var tokenTestSentences = []string{
	"Avoid shared memory bank conflicts to maximize bandwidth.",
	"The number of threads per block should be a multiple of the warp size.",
	"Don't use clWaitForEvents() unless synchronization is required!",
	"Coalesced accesses -- e.g. 128-byte transactions -- reduce memory latency by 3.14x.",
	"It is recommended to overlap transfers with execution.",
	"",
	"   ",
	"cudaMemcpyAsync overlaps; cudaMemcpy does not.",
}

// fromTokens builds an index from pre-tokenized sentences the way the
// annotate-once pipeline does: each token list normalized (stopword and
// punctuation removal, Porter stemming) without re-tokenizing.
func fromTokens(tokenLists [][]string) *Index {
	terms := make([][]string, len(tokenLists))
	for i, toks := range tokenLists {
		terms[i] = textproc.NormalizeWords(toks)
	}
	return BuildFromTerms(terms, nil)
}

// TestBuildFromTokensBitExact asserts that an index built from pre-tokenized
// sentences is bit-exact with one built from the raw texts: identical
// vocabulary size, identical IDFs, and float64-identical scores for every
// document against a battery of queries. This is the guarantee that lets the
// annotate-once pipeline hand Stage I's tokens to Stage II without changing
// a single retrieval result.
func TestBuildFromTokensBitExact(t *testing.T) {
	tokens := make([][]string, len(tokenTestSentences))
	for i, s := range tokenTestSentences {
		tokens[i] = textproc.Words(s)
	}
	assertIndexesBitExact(t, Build(tokenTestSentences), fromTokens(tokens))
}

// TestBuildFromTermsBitExact covers the third construction path — fully
// pre-normalized terms, as produced by nlp.Annotation.Terms.
func TestBuildFromTermsBitExact(t *testing.T) {
	terms := make([][]string, len(tokenTestSentences))
	for i, s := range tokenTestSentences {
		terms[i] = textproc.NormalizeTerms(s)
	}
	assertIndexesBitExact(t, Build(tokenTestSentences), BuildFromTerms(terms, nil))
}

// TestBuildFromTokensBitExactRandom repeats the equivalence over larger
// random corpora so vocabulary-id assignment order is stressed too.
func TestBuildFromTokensBitExactRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sentences := randomCorpus(rng, 300)
	tokens := make([][]string, len(sentences))
	for i, s := range sentences {
		tokens[i] = textproc.Words(s)
	}
	assertIndexesBitExact(t, Build(sentences), fromTokens(tokens))
}

func assertIndexesBitExact(t *testing.T, a, b *Index) {
	t.Helper()
	if a.n != b.n {
		t.Fatalf("Len: %d vs %d", a.n, b.n)
	}
	if len(a.vocab) != len(b.vocab) {
		t.Fatalf("VocabSize: %d vs %d", len(a.vocab), len(b.vocab))
	}
	for term := range a.vocab {
		if idfOf(a, term) != idfOf(b, term) {
			t.Fatalf("IDF(%q): %v vs %v", term, idfOf(a, term), idfOf(b, term))
		}
	}
	queries := []string{
		"avoid bank conflicts",
		"memory latency",
		"warp size threads per block",
		"overlap transfers with execution",
		"clWaitForEvents synchronization",
	}
	for _, q := range queries {
		terms := textproc.NormalizeTerms(q)
		sa := engineScores(a, terms)
		sb := engineScores(b, terms)
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("%q doc %d: %v vs %v (must be bit-identical)", q, i, sa[i], sb[i])
			}
		}
	}
}
