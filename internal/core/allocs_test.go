//go:build !race

// Under -race, sync.Pool drops a quarter of what it is given, so the
// index's pooled scratch is rebuilt at random and allocation counts do not
// hold.

package core

import (
	"context"
	"testing"

	"repro/internal/corpus"
	"repro/internal/nlp"
)

// TestRetrieveAllocs: Retrieve allocates the index's match list and the
// answer list, and nothing per answer.
func TestRetrieveAllocs(t *testing.T) {
	g := corpus.GenerateSized(corpus.CUDA, 200, 0.25, 31)
	adv := New().BuildFromSentences(g.Doc, g.Sentences)
	terms := nlp.QueryTerms("reduce instruction and memory latency")
	if len(adv.Retrieve(context.Background(), terms, adv.Threshold())) < 2 {
		t.Fatal("fewer than 2 answers")
	}
	if n := testing.AllocsPerRun(100, func() {
		adv.Retrieve(context.Background(), terms, adv.Threshold())
	}); n > 2 {
		t.Errorf("Retrieve allocates %v times per call, want at most 2", n)
	}
}
