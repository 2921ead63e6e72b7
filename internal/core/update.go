package core

import (
	"context"
	"errors"
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

// ErrCannotUpdate reports that the previous advisor does not retain the
// per-sentence identity state an incremental rebuild needs (see
// Advisor.HasIdentity); the caller should fall back to a full build.
var ErrCannotUpdate = errors.New("core: previous advisor lacks sentence identity state; full rebuild required")

// UpdateFromSentences synthesizes an advisor for a new version of a document
// by reusing the previous version's per-sentence work. See
// UpdateFromSentencesCtx.
func (f *Framework) UpdateFromSentences(prev *Advisor, d *htmldoc.Document, sents []htmldoc.Sentence) (*Advisor, error) {
	return f.UpdateFromSentencesCtx(context.Background(), prev, d, sents)
}

// UpdateFromSentencesCtx is the incremental counterpart of
// BuildFromSentencesCtx: it diffs the new sentence list against prev by
// stable identity (internal/doc) and re-runs Stage I — annotation and
// selector classification — only over the Added sentences, splicing prev's
// annotations and classifications for the Kept ones. The TF-IDF index is
// rebuilt through vsm.Rebuild, which recomputes every corpus-wide statistic
// (document frequencies, IDF, weights, postings) but reuses the kept
// sentences' term counts.
//
// The result is indistinguishable from a full build of the same sentences:
// identical rules and Float64bits-identical retrieval scores under every
// backend (the eval suite's incremental≡full test enforces this). Only
// BuildStats differs — Reused reports how many sentences carried over.
//
// Returns ErrCannotUpdate when prev does not retain identity state (e.g. an
// advisor loaded from a pre-identity snapshot); callers then fall back to a
// full build. prev is never mutated: its annotations and index-side term
// counts are shared with the new advisor, but both treat them as immutable.
func (f *Framework) UpdateFromSentencesCtx(ctx context.Context, prev *Advisor, d *htmldoc.Document, sents []htmldoc.Sentence) (*Advisor, error) {
	if prev == nil || !prev.HasIdentity() {
		return nil, ErrCannotUpdate
	}
	updateSpan := obs.SpanFrom(ctx).StartChild("core.update")
	if updateSpan != nil {
		updateSpan.SetAttrInt("sentences", len(sents))
		ctx = obs.ContextWithSpan(ctx, updateSpan)
		defer updateSpan.Finish()
	}
	sents = htmldoc.StampIDs(d, sents)
	newIDs := htmldoc.IDsOf(sents)
	diffs := doc.Diff(prev.ids, newIDs)

	a := &Advisor{
		name:      prev.name,
		doc:       d,
		sentences: sents,
		ids:       newIDs,
		isAdv:     make([]bool, len(sents)),
		threshold: f.threshold,
		builtAt:   time.Now(),
		stats: BuildStats{
			Sentences:  len(sents),
			Reused:     len(diffs.Kept),
			BySelector: map[selectors.SelectorID]int{},
		},
	}

	// stage 1: annotate only the Added sentences. The cache is seeded with
	// every annotation of the previous version, so the kept sentences (and
	// any sentence that merely moved) are served from it.
	texts := make([]string, len(sents))
	for i, s := range sents {
		texts[i] = s.Text
	}
	cache := nlp.NewAnnotationCache()
	for i, id := range prev.ids {
		cache.Put(id, prev.anns[i])
	}
	start := time.Now()
	anns, reused := f.annotator.AnnotateAllCachedCtx(ctx, newIDs, texts, cache)
	a.anns = anns
	a.stats.Annotate = time.Since(start)
	updateAnnotateMicro.ObserveDuration(a.stats.Annotate)
	if reused < len(diffs.Kept) {
		// cannot happen: every kept ID was seeded above
		return nil, fmt.Errorf("core: incremental update reused %d annotations for %d kept sentences", reused, len(diffs.Kept))
	}

	// stage 2: classify only the Added sentences; kept sentences inherit the
	// previous version's Stage-I decision (the selectors are pure functions
	// of one sentence's annotation and the framework's immutable config, so
	// the decision cannot have changed).
	prevSel := make([]selectors.SelectorID, len(prev.ids))
	for _, adv := range prev.advising {
		prevSel[adv.Index] = adv.Selector
	}
	start = time.Now()
	classifySpan := obs.SpanFrom(ctx).StartChild("classify")
	addedAnns := make([]*nlp.Annotation, len(diffs.Added))
	for k, j := range diffs.Added {
		addedAnns[k] = anns[j]
	}
	addedResults := f.classifyAnnotated(addedAnns)
	results := make([]selectors.Result, len(sents))
	for _, kp := range diffs.Kept {
		if prev.isAdv[kp.Old] {
			results[kp.New] = selectors.Result{Advising: true, Selector: prevSel[kp.Old]}
		}
	}
	for k, j := range diffs.Added {
		results[j] = addedResults[k]
	}
	classifySpan.Finish()
	a.stats.Classify = time.Since(start)
	a.stats.StageI = a.stats.Annotate + a.stats.Classify

	a.keepAdvising(results)

	// stage 3: differential index rebuild — corpus-wide statistics are
	// recomputed (one edit can shift every IDF), per-sentence term counts
	// are reused for the kept sentences, and the successor's advising
	// sentences get postings.
	start = time.Now()
	indexSpan := obs.SpanFrom(ctx).StartChild("index")
	added := make([]vsm.AddedDoc, len(diffs.Added))
	for k, j := range diffs.Added {
		added[k] = vsm.AddedDoc{Pos: j, Terms: anns[j].Terms()}
	}
	index, err := prev.index.Rebuild(diffs.Kept, added, a.isAdv)
	indexSpan.Finish()
	if err != nil {
		return nil, fmt.Errorf("core: incremental index rebuild: %w", err)
	}
	a.index = index
	a.stats.Indexing = time.Since(start)

	updatesTotal.Inc()
	updateReusedTotal.Add(int64(len(diffs.Kept)))
	if updateSpan != nil {
		updateSpan.SetAttrInt("kept", len(diffs.Kept))
		updateSpan.SetAttrInt("added", len(diffs.Added))
		updateSpan.SetAttrInt("removed", len(diffs.Removed))
		updateSpan.SetAttrInt("advising", len(a.advising))
	}
	return a, nil
}
