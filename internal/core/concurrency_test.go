package core

import (
	"context"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/nlp"
)

// TestConcurrentQueries exercises an advisor from many goroutines at once
// (the web tool serves concurrent requests); run with -race. The advisor is
// immutable after Build, so all read paths must be safe.
func TestConcurrentQueries(t *testing.T) {
	g := corpus.GenerateSized(corpus.CUDA, 200, 0.25, 51)
	a := New().BuildFromSentences(g.Doc, g.Sentences)
	queries := []string{
		"how to avoid shared memory bank conflicts",
		"minimize divergent warps",
		"reduce instruction and memory latency",
		"overlap transfers with execution",
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				q := queries[(w+i)%len(queries)]
				answers := a.Query(q)
				for _, ans := range answers {
					if !a.IsAdvising(ans.Sentence.Index) {
						errs <- "non-advising answer under concurrency"
						return
					}
				}
				_ = a.Rules()
				_ = a.CompressionRatio()
				if _, err := a.Retrieve(context.Background(), nlp.QueryTerms(q), a.QueryOpts("bm25")); err != nil {
					errs <- err.Error()
					return
				}
				_ = a.SectionOf(i % a.SentenceCount())
				_ = a.SentenceText(i % a.SentenceCount())
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestConcurrentBuilds runs several Stage-I builds in parallel sharing one
// Framework (the recognizer is shared state and must be read-only).
func TestConcurrentBuilds(t *testing.T) {
	fw := New(WithParallelism(4))
	guides := make([]*corpus.Guide, 4)
	for i := range guides {
		guides[i] = corpus.GenerateSized(corpus.CUDA, 80, 0.25, int64(60+i))
	}
	var wg sync.WaitGroup
	results := make([]*Advisor, len(guides))
	for i := range guides {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = fw.BuildFromSentences(guides[i].Doc, guides[i].Sentences)
		}(i)
	}
	wg.Wait()
	for i, a := range results {
		if a == nil || a.SentenceCount() != 80 {
			t.Errorf("build %d broken", i)
		}
	}
}
