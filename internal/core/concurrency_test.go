package core

import (
	"bytes"
	"context"
	"math"
	"slices"
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
				for _, ans := range a.Retrieve(context.Background(), nlp.QueryTerms(q), 0) {
					if !a.IsAdvising(ans.Sentence.Index) {
						errs <- "non-advising answer at threshold 0 under concurrency"
						return
					}
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

// TestNoResultAliasesAScratch builds with four Stage-I workers, then
// annotates another guide's sentences into every worker's scratch. Only
// each sentence's verdict and exactly sized term list may leave a worker,
// so the advisor's rules, answers and Save bytes must not move, and must
// equal a serial build's.
func TestNoResultAliasesAScratch(t *testing.T) {
	g := corpus.Generate(corpus.CUDA, 1)
	serial := New(WithParallelism(1)).BuildFromSentences(g.Doc, g.Sentences)

	var mu sync.Mutex
	var scratches []*nlp.Scratch
	stageIDone = func(sc *nlp.Scratch) {
		mu.Lock()
		defer mu.Unlock()
		scratches = append(scratches, sc)
	}
	a := New(WithParallelism(4)).BuildFromSentences(g.Doc, g.Sentences)
	stageIDone = nil
	if len(scratches) != 4 {
		t.Fatalf("%d workers handed back a scratch, want 4", len(scratches))
	}
	before := saveBytes(t, a)

	other := corpus.Generate(corpus.OpenCL, 2)
	for _, sc := range scratches {
		for _, s := range other.Sentences {
			sc.Annotate(s.Text)
		}
	}

	if after := saveBytes(t, a); !bytes.Equal(after, before) {
		t.Error("Save bytes changed when the workers' scratches were overwritten")
	}
	if !bytes.Equal(before, saveBytes(t, serial)) {
		t.Error("Save bytes differ from a serial build's")
	}
	if !slices.EqualFunc(a.Rules(), serial.Rules(), func(x, y AdvisingSentence) bool { return x == y }) {
		t.Error("rules differ from a serial build's")
	}
	for _, q := range []string{
		"how to avoid shared memory bank conflicts",
		"overlap transfers with execution",
		"memory coalescing",
		"reduce register pressure to raise occupancy",
	} {
		got, want := a.Query(q), serial.Query(q)
		if !slices.EqualFunc(got, want, func(x, y Answer) bool {
			return *x.Sentence == *y.Sentence && math.Float64bits(x.Score) == math.Float64bits(y.Score)
		}) {
			t.Errorf("%q: answers differ from a serial build's", q)
		}
	}
}
