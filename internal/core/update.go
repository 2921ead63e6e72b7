package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/doc"
	"repro/internal/htmldoc"
	"repro/internal/nlp"
	"repro/internal/obs"
	"repro/internal/selectors"
	"repro/internal/vsm"
)

// Incremental-build observability, alongside the core_build_* metrics: how
// many incremental updates ran and how many sentence annotations they reused
// instead of recomputing.
var (
	updatesTotal        = obs.Default().Counter("core_updates_total")
	updateReusedTotal   = obs.Default().Counter("core_update_sentences_reused_total")
	updateAnnotateMicro = obs.Default().Histogram("core_update_annotate_micros")
)

// UpdateFromSentences synthesizes an advisor for a new version of a document
// by reusing the previous version's per-sentence work. See
// UpdateFromSentencesCtx.
func (f *Framework) UpdateFromSentences(prev *Advisor, d *htmldoc.Document, sents []htmldoc.Sentence) (*Advisor, error) {
	return f.UpdateFromSentencesCtx(context.Background(), prev, d, sents)
}

// UpdateFromSentencesCtx is the one Stage-I pipeline: it diffs the new
// sentence list against prev by stable identity (internal/doc) and re-runs
// Stage I — annotation and selector classification — only over the Added
// sentences, taking prev's annotation and verdict for each Kept one. The
// TF-IDF index is rebuilt through vsm.Index.Rebuild, which recomputes every
// corpus-wide statistic (document frequencies, IDF, weights, postings) but
// reuses the kept sentences' term counts.
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
// prev is never mutated: its annotations and index-side term counts are
// shared with the new advisor, but both treat them as immutable.
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
	sents = htmldoc.StampIDs(d, sents)
	a := &Advisor{
		name:      prev.name,
		doc:       d,
		sentences: sents,
		ids:       htmldoc.IDsOf(sents),
		threshold: f.threshold,
		builtAt:   time.Now(),
		stats: BuildStats{
			Sentences:  len(sents),
			BySelector: map[selectors.SelectorID]int{},
		},
	}
	diffs := doc.Diff(prev.ids, a.ids)
	a.stats.Reused = len(diffs.Kept)

	// stage 1: annotate (tokenize, tag, parse, stem) each Added sentence
	// once; a Kept sentence takes prev's annotation
	start := time.Now()
	texts := make([]string, len(diffs.Added))
	for k, j := range diffs.Added {
		texts[k] = sents[j].Text
	}
	fresh := f.annotator.AnnotateAllCtx(ctx, texts)
	a.anns = make([]*nlp.Annotation, len(sents))
	for _, kp := range diffs.Kept {
		a.anns[kp.New] = prev.anns[kp.Old]
	}
	for k, j := range diffs.Added {
		a.anns[j] = fresh[k]
	}
	a.stats.Annotate = time.Since(start)

	// stage 2: classify the Added annotations; a Kept sentence keeps prev's
	// verdict (the selectors are pure functions of one sentence's annotation
	// and the framework's immutable config, so it cannot have changed)
	start = time.Now()
	classifySpan := obs.SpanFrom(ctx).StartChild("classify")
	verdicts := f.classifyAnnotated(fresh)
	results := make([]selectors.Result, len(sents))
	for _, kp := range diffs.Kept {
		if prev.isAdv[kp.Old] {
			results[kp.New] = selectors.Result{Advising: true, Selector: prev.advising[prev.rulePos[kp.Old]].Selector}
		}
	}
	for k, j := range diffs.Added {
		results[j] = verdicts[k]
	}
	classifySpan.Finish()
	a.stats.Classify = time.Since(start)
	a.stats.StageI = a.stats.Annotate + a.stats.Classify

	a.keepAdvising(results)

	// stage 3: the TF-IDF statistics cover the whole document (as the
	// artifact describes) so term weights reflect corpus-wide statistics,
	// but only the advising sentences get postings: Stage II retrieves from
	// Stage I's output and never scores the rest. Every statistic is
	// recomputed (one edit can shift every IDF); the Kept sentences' term
	// counts are reused and the Added ones' come from their annotations, so
	// no text is re-tokenized.
	start = time.Now()
	indexSpan := obs.SpanFrom(ctx).StartChild("index")
	added := make([]vsm.AddedDoc, len(diffs.Added))
	for k, j := range diffs.Added {
		added[k] = vsm.AddedDoc{Pos: j, Terms: fresh[k].Terms()}
	}
	index, err := prev.index.Rebuild(diffs.Kept, added, a.isAdv)
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
		buildsTotal.Inc()
	} else {
		updateAnnotateMicro.ObserveDuration(a.stats.Annotate)
		updatesTotal.Inc()
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
