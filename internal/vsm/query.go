package vsm

import (
	"context"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Stage-II observability, reported into the default metrics registry
// (surfaced on /metricz as vsm_*): query volume, postings walked, scoring
// latency across both backends, and partitions lost to their fault draw.
var (
	queriesScored     = obs.Default().Counter("vsm_queries_scored_total")
	postingsScored    = obs.Default().Counter("vsm_postings_scored_total")
	scoreHist         = obs.Default().Histogram("vsm_score_micros")
	partitionFailures = obs.Default().Counter("vsm_shard_failures_total")
)

// QueryOpts are the options of one query.
type QueryOpts struct {
	// Backend selects the weighting: "" or BackendVSM for TF-IDF cosine,
	// BackendBM25 for Okapi BM25.
	Backend string
	// Threshold admits every served document scoring at or above it. A
	// threshold at or below zero admits zero-score documents, so every
	// served document matches.
	Threshold float64
	// Serial scores the partitions one after another on the calling
	// goroutine rather than across GOMAXPROCS workers, for callers that are
	// already parallel across queries. Scores are identical either way.
	Serial bool
	// Fault, when set, is drawn once per partition before it scores. A
	// non-nil error fails that partition: its documents are missing from
	// the matches, and the Outcome counts it.
	Fault func() error
}

// Outcome reports how a query's partitions fared.
type Outcome struct {
	Partitions int   // partitions the query ran over
	Failed     int   // partitions that failed their fault draw
	Err        error // the failure of the lowest-numbered failed partition
}

// term is one query-vector component: a vocabulary id and its query-side
// multiplier.
type term struct {
	id int
	w  float64
}

// accumulator is one partition's pooled query scratch: a score slot and a
// seen flag per document, and the touched documents in first-touch order.
// Only touched slots are ever set, so walking the touched list resets it.
type accumulator struct {
	score   []float64
	seen    []bool
	touched []int32
}

// Query scores pre-normalized query terms against every partition's served
// documents and returns the matches best first: score descending, ties by
// ascending document ordinal. Under the VSM backend a score is the cosine
// of the document's and the query's TF-IDF vectors (Eqs. 1-2); under BM25
// it is the document's Okapi score for the distinct query terms.
//
// Every document's score is the sum, in ascending term-id order, of the
// query multiplier times the posting weight of each query term it
// contains — the same float operations in the same order whatever
// partition holds it — and the ordering is total, so the matches are
// Float64bits-identical at any partition count, serial or parallel.
//
// When ctx carries a sampled span the pass is recorded as a "vsm.score"
// child with one "vsm.shard" child per partition. An unknown o.Backend
// returns ErrUnknownBackend.
func (ix *Index) Query(ctx context.Context, terms []string, o QueryOpts) ([]Match, Outcome, error) {
	wt, err := weightingOf(o.Backend)
	if err != nil {
		return nil, Outcome{}, err
	}
	if parent := obs.SpanFrom(ctx); parent != nil {
		span := parent.StartChild("vsm.score")
		span.SetAttr("backend", Backends()[wt])
		span.SetAttrInt("query_terms", len(terms))
		span.SetAttrInt("docs", ix.n)
		span.SetAttrInt("shards", len(ix.parts))
		if o.Serial {
			span.SetAttr("mode", "serial")
		}
		defer span.Finish()
		ctx = obs.ContextWithSpan(ctx, span)
	}
	start := time.Now()
	defer func() {
		scoreHist.ObserveDuration(time.Since(start))
		queriesScored.Inc()
	}()
	qv := ix.queryVector(terms, wt)
	lists := make([][]Match, len(ix.parts))
	walked := make([]int, len(ix.parts))
	outcome := ix.fanOut(ctx, o, func(p int) {
		lists[p], walked[p] = ix.parts[p].score(qv, wt, o.Threshold)
	})
	postings := 0
	for _, w := range walked {
		postings += w
	}
	postingsScored.Add(int64(postings))
	out := lists[0]
	if len(lists) > 1 {
		out = slices.Concat(lists...)
	}
	sortMatches(out)
	return out, outcome, nil
}

// sortMatches puts matches in the total match order: score descending, ties
// by ascending document ordinal. The order is total, so sorting the
// concatenated partition lists reproduces the one list a single partition
// would give.
func sortMatches(m []Match) {
	slices.SortFunc(m, func(a, b Match) int {
		switch {
		case a.Score > b.Score:
			return -1
		case a.Score < b.Score:
			return 1
		}
		return a.Index - b.Index
	})
}

// queryVector resolves query terms under weighting wt, in ascending term-id
// order. For VSM it is the L2-normalized TF-IDF query vector, without
// zero-weight terms (terms in every document contribute nothing to a
// cosine). The vocabulary and IDF cover every document, so the norm counts
// the query terms that occur only in unserved documents, as a query vector
// over the whole corpus must. For BM25 it is each distinct in-vocabulary
// term once, with multiplier 1 (the binary query model; 1·c is exactly c).
// Sorting before the norm keeps vectorization bit-deterministic: map
// iteration order is random.
func (ix *Index) queryVector(terms []string, wt int) []term {
	tf := map[int]float64{}
	for _, t := range terms {
		if id, ok := ix.vocab[t]; ok {
			tf[id]++
		}
	}
	qv := make([]term, 0, len(tf))
	for id, f := range tf {
		w := 1.0
		if wt == wVSM {
			if w = f * ix.idf[id]; w == 0 {
				continue
			}
		}
		qv = append(qv, term{id: id, w: w})
	}
	sort.Slice(qv, func(a, b int) bool { return qv[a].id < qv[b].id })
	if wt == wVSM {
		var norm float64
		for _, q := range qv {
			norm += q.w * q.w
		}
		if norm > 0 {
			norm = math.Sqrt(norm)
			for i := range qv {
				qv[i].w /= norm
			}
		}
	}
	return qv
}

// fanOut runs fn once per partition in a bounded worker pool — at most
// min(GOMAXPROCS, partitions) goroutines, and only the calling goroutine
// for one partition or under o.Serial. Each partition draws o.Fault (when
// set) first; a failed partition is skipped and counted. fn writes only
// partition-owned state, so the workers never share a write.
func (ix *Index) fanOut(ctx context.Context, o QueryOpts, fn func(p int)) Outcome {
	parent := obs.SpanFrom(ctx)
	errs := make([]error, len(ix.parts))
	exec := func(p int) {
		span := parent.StartChild("vsm.shard")
		if span != nil {
			span.SetAttrInt("shard", p)
			span.SetAttrInt("docs", len(ix.parts[p].docs))
			defer span.Finish()
		}
		if o.Fault != nil {
			if errs[p] = o.Fault(); errs[p] != nil {
				span.SetAttr("error", errs[p].Error())
				partitionFailures.Inc()
				return
			}
		}
		fn(p)
	}
	workers := min(runtime.GOMAXPROCS(0), len(ix.parts))
	if o.Serial || workers <= 1 {
		for p := range ix.parts {
			exec(p)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for p := int(next.Add(1)) - 1; p < len(ix.parts); p = int(next.Add(1)) - 1 {
					exec(p)
				}
			}()
		}
		wg.Wait()
	}
	out := Outcome{Partitions: len(ix.parts)}
	for _, err := range errs {
		if err != nil {
			out.Failed++
			if out.Err == nil {
				out.Err = err
			}
		}
	}
	return out
}

// score is the one exact accumulator. It walks the query terms' postings in
// ascending term-id order into pooled scratch, adding q.w·w to each
// document's slot, then keeps the documents at or above threshold, mapped
// to global ordinals, unsorted, and counts the postings it walked. A
// positive threshold can only admit touched documents, since an untouched
// score is exactly zero; otherwise every slot is a candidate.
func (p *partition) score(qv []term, wt int, threshold float64) ([]Match, int) {
	acc, _ := p.scratch.Get().(*accumulator)
	if acc == nil {
		acc = &accumulator{score: make([]float64, len(p.docs)), seen: make([]bool, len(p.docs))}
	}
	weights := p.w[wt]
	walked := 0
	for _, q := range qv {
		lo, hi := p.start[q.id], p.start[q.id+1]
		walked += hi - lo
		ws := weights[lo:hi]
		for i, d := range p.post[lo:hi] {
			if !acc.seen[d] {
				acc.seen[d] = true
				acc.touched = append(acc.touched, d)
			}
			acc.score[d] += q.w * ws[i]
		}
	}
	// the match list is allocated once at its exact size: long BM25 lists
	// would otherwise regrow many times
	var out []Match
	if threshold > 0 {
		kept := 0
		for _, d := range acc.touched {
			if acc.score[d] >= threshold {
				kept++
			}
		}
		if kept > 0 {
			out = make([]Match, 0, kept)
		}
		for _, d := range acc.touched {
			if s := acc.score[d]; s >= threshold {
				out = append(out, Match{Index: int(p.docs[d]), Score: s})
			}
		}
	} else {
		// scores are non-negative: every slot clears the threshold (unless
		// it is NaN)
		out = make([]Match, 0, len(p.docs))
		for d, s := range acc.score {
			if s >= threshold {
				out = append(out, Match{Index: int(p.docs[d]), Score: s})
			}
		}
	}
	for _, d := range acc.touched {
		acc.score[d], acc.seen[d] = 0, false
	}
	acc.touched = acc.touched[:0]
	p.scratch.Put(acc)
	return out, walked
}
