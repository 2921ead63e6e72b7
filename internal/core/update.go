package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/htmldoc"
	"repro/internal/nlp"
	"repro/internal/obs"
	"repro/internal/selectors"
	"repro/internal/vsm"
)

// Incremental-build observability, alongside the core_build_* metrics: the
// Stage-I latency of each update (so its count is the number of updates) and
// how many sentences' terms and verdicts they reused instead of recomputing.
var (
	updateReusedTotal   = obs.Default().Counter("core_update_sentences_reused_total")
	updateAnnotateMicro = obs.Default().Histogram("core_update_annotate_micros")
)

// stageIDone, when a test sets it, receives each Stage-I worker's scratch
// once the worker has taken its last sentence.
var stageIDone func(*nlp.Scratch)

// UpdateFromSentences synthesizes an advisor for a new version of a document
// by reusing the previous version's per-sentence work. See
// UpdateFromSentencesCtx.
func (f *Framework) UpdateFromSentences(prev *Advisor, d *htmldoc.Document, sents []htmldoc.Sentence) (*Advisor, error) {
	return f.UpdateFromSentencesCtx(context.Background(), prev, d, sents)
}

// UpdateFromSentencesCtx is the one Stage-I pipeline: it diffs the new
// sentence list against prev by identity, derived from content on every
// call (Advisor.Diff), and re-runs Stage I — annotation and selector
// classification — only over the Added sentences, taking prev's terms and
// verdict for each Kept one. The TF-IDF index is rebuilt through
// vsm.Index.Rebuild, which recomputes every corpus-wide statistic
// (document frequencies, IDF, weights, postings) but reuses the kept
// sentences' term counts.
//
// A nil prev holds no sentences, so every sentence is Added and the result
// is the cold build (BuildFromSentences), traced as "core.build" and
// counted by the core_build_* metrics; an update from an advisor is traced
// as "core.update" and counted by the core_update_* ones.
//
// The result is indistinguishable from a cold build of the same sentences:
// identical rules and Float64bits-identical retrieval scores (the eval
// suite's incremental≡full test enforces this). Only
// BuildStats differs — Reused reports how many sentences carried over.
// prev is never mutated: its term lists and index-side term counts are
// shared with the new advisor, but both treat them as immutable. The new
// advisor keeps its own copy of sents, so a caller may edit the slice it
// passed in place and hand it to the next update.
func (f *Framework) UpdateFromSentencesCtx(ctx context.Context, prev *Advisor, d *htmldoc.Document, sents []htmldoc.Sentence) (*Advisor, error) {
	cold := prev == nil
	spanName := "core.update"
	if cold {
		prev = &Advisor{index: new(vsm.Index)}
		spanName = "core.build"
	}
	span := obs.SpanFrom(ctx).StartChild(spanName)
	if span != nil {
		span.SetAttrInt("sentences", len(sents))
		ctx = obs.ContextWithSpan(ctx, span)
		defer span.Finish()
	}
	a := &Advisor{
		name:      prev.name,
		doc:       d,
		sentences: slices.Clone(sents),
		terms:     make([][]string, len(sents)),
		threshold: f.threshold,
		builtAt:   time.Now(),
		stats: BuildStats{
			Sentences:  len(sents),
			BySelector: map[selectors.SelectorID]int{},
		},
	}
	diffs := prev.Diff(d, a.sentences)
	a.stats.Reused = len(diffs.Kept)

	// Stage I: a Kept sentence takes prev's terms and verdict (the
	// selectors are pure functions of one sentence's annotation and the
	// framework's immutable config, so neither can have changed); the
	// Added ones are annotated, classified and reduced to their terms in
	// one pass
	start := time.Now()
	results := make([]selectors.Result, len(sents))
	for _, kp := range diffs.Kept {
		a.terms[kp.New] = prev.terms[kp.Old]
		if prev.isAdv[kp.Old] {
			results[kp.New] = selectors.Result{Advising: true, Selector: prev.advising[prev.rulePos[kp.Old]].Selector}
		}
	}
	annotate, classify := f.stageI(ctx, a.sentences, diffs.Added, a.terms, results)
	a.stats.StageI = time.Since(start)
	a.stats.Annotate = a.stats.StageI
	if busy := annotate + classify; busy > 0 {
		a.stats.Annotate = time.Duration(float64(a.stats.StageI) * float64(annotate) / float64(busy))
	}
	a.stats.Classify = a.stats.StageI - a.stats.Annotate

	a.keepAdvising(results)

	// the TF-IDF statistics cover the whole document (as the artifact
	// describes) so term weights reflect corpus-wide statistics, but only
	// the advising sentences get postings: Stage II retrieves from Stage
	// I's output and never scores the rest. Every statistic is recomputed
	// (one edit can shift every IDF); the Kept sentences' term counts are
	// reused and the Added ones' come from their Stage-I terms, so no text
	// is re-tokenized.
	start = time.Now()
	indexSpan := obs.SpanFrom(ctx).StartChild("index")
	index, err := prev.index.Rebuild(diffs.Kept, a.terms, a.isAdv)
	indexSpan.Finish()
	if err != nil {
		return nil, fmt.Errorf("core: index rebuild: %w", err)
	}
	a.index = index
	a.stats.Indexing = time.Since(start)

	if cold {
		buildAnnotate.ObserveDuration(a.stats.Annotate)
		buildClassify.ObserveDuration(a.stats.Classify)
		buildIndex.ObserveDuration(a.stats.Indexing)
	} else {
		updateAnnotateMicro.ObserveDuration(a.stats.Annotate)
		updateReusedTotal.Add(int64(len(diffs.Kept)))
	}
	if span != nil {
		if !cold {
			span.SetAttrInt("kept", len(diffs.Kept))
			span.SetAttrInt("added", len(diffs.Added))
			span.SetAttrInt("removed", len(diffs.Removed))
		}
		span.SetAttrInt("advising", len(a.advising))
	}
	return a, nil
}

// stageI runs Stage I over the sentences at positions added, fanned out
// across the framework's workers: each worker annotates a sentence into its
// one nlp.Scratch, classifies the annotation and writes the verdict and the
// sentence's retrieval terms (an exactly sized copy) to its position in
// results and terms. Nothing else leaves the worker, and the next sentence
// overwrites the scratch, so no parse tree outlives its sentence and the
// buffers are allocated once per worker, not per sentence. It returns the
// time the workers spent annotating (terms included) and classifying,
// summed over workers. Work is claimed by an atomic counter: one atomic add
// per sentence, with no channel fill before the fan-out.
func (f *Framework) stageI(ctx context.Context, sents []htmldoc.Sentence, added []int, terms [][]string, results []selectors.Result) (annotate, classify time.Duration) {
	n := len(added)
	workers := min(f.parallelism, n)
	if span := obs.SpanFrom(ctx).StartChild("stage1"); span != nil {
		span.SetAttrInt("sentences", n)
		span.SetAttrInt("workers", workers)
		defer span.Finish()
	}
	var next atomic.Int64
	work := func() (ann, cls time.Duration) {
		sc := new(nlp.Scratch)
		if stageIDone != nil {
			defer stageIDone(sc)
		}
		for k := int(next.Add(1)) - 1; k < n; k = int(next.Add(1)) - 1 {
			j := added[k]
			t0 := time.Now()
			an := sc.Annotate(sents[j].Text)
			t1 := time.Now()
			results[j] = f.recognizer.ClassifyAnnotated(an)
			t2 := time.Now()
			terms[j] = an.Terms()
			ann += t1.Sub(t0) + time.Since(t2)
			cls += t2.Sub(t1)
		}
		return ann, cls
	}
	if workers <= 1 {
		return work()
	}
	sums := make([][2]time.Duration, workers) // per worker: annotate, classify
	var wg sync.WaitGroup
	for w := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[w][0], sums[w][1] = work()
		}()
	}
	wg.Wait()
	for _, s := range sums {
		annotate += s[0]
		classify += s[1]
	}
	return annotate, classify
}
