package vsm

import (
	"context"
	"encoding/binary"
	"math"
	"slices"
	"time"

	"repro/internal/obs"
)

// Stage-II observability, reported into the default metrics registry
// (surfaced on /metricz as vsm_*): postings walked and scoring latency, one
// observation per query scored.
var (
	postingsScored = obs.Default().Counter("vsm_postings_scored_total")
	scoreHist      = obs.Default().Histogram("vsm_score_micros")
)

// term is one query-vector component: a vocabulary id and its normalized
// query weight.
type term struct {
	id int
	w  float64
}

// accumulator is an index's pooled query scratch: a score slot and a seen
// flag per served document, and the touched documents in first-touch order.
// Only touched slots are ever set, so walking the touched list resets it.
type accumulator struct {
	score   []float64
	seen    []bool
	touched []int32
}

// Query scores pre-normalized query terms against the served documents
// and returns the matches scoring at or above threshold, best first: score
// descending, ties by ascending document ordinal. A score is the cosine of
// the document's and the query's TF-IDF vectors (Eqs. 1-2). A threshold at
// or below zero admits zero-score documents, so every served document
// matches.
//
// Every document's score is the sum, in ascending term-id order, of the
// query weight times the posting weight of each query term it contains,
// so it depends only on the document, the query and the corpus
// statistics; the ordering is total.
//
// When ctx carries a sampled span the pass is recorded as a "vsm.score"
// child.
func (ix *Index) Query(ctx context.Context, terms []string, threshold float64) []Match {
	if parent := obs.SpanFrom(ctx); parent != nil {
		span := parent.StartChild("vsm.score")
		span.SetAttrInt("query_terms", len(terms))
		span.SetAttrInt("docs", ix.n)
		defer span.Finish()
	}
	start := time.Now()
	var buf [64]term
	out, walked := ix.score(ix.queryVector(buf[:0], terms), threshold)
	postingsScored.Add(int64(walked))
	sortMatches(out)
	scoreHist.ObserveDuration(time.Since(start))
	return out
}

// sortMatches puts matches in the total match order: score descending, ties
// by ascending document ordinal.
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

// resolve appends to ids the vocabulary id of every query term the index
// knows, sorted ascending: exactly what Stage II scores, each id as often
// as the query holds its term. Every other term is dropped here.
func (ix *Index) resolve(ids []int32, terms []string) []int32 {
	for _, t := range terms {
		if id, ok := ix.vocab[t]; ok {
			ids = append(ids, int32(id))
		}
	}
	slices.Sort(ids)
	return ids
}

// idRun returns the id at ids[i] of sorted ids and how many times it occurs.
func idRun(ids []int32, i int) (int32, int) {
	n := 1
	for i+n < len(ids) && ids[i+n] == ids[i] {
		n++
	}
	return ids[i], n
}

// AppendQueryKey appends to b what this index scores for the query terms:
// the index's process-unique identity, then each distinct in-vocabulary
// term id in ascending order with its count, all as uvarints. Two queries
// append the same bytes exactly when this index gives them the same query
// vector, so they score Float64bits-identically; no two indexes, even
// built from identical term lists, append the same bytes, since term ids
// of different indexes cannot be compared.
func (ix *Index) AppendQueryKey(b []byte, terms []string) []byte {
	var buf [64]int32
	ids := ix.resolve(buf[:0], terms)
	b = binary.AppendUvarint(b, ix.id)
	for i := 0; i < len(ids); {
		id, n := idRun(ids, i)
		i += n
		b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(id)), uint64(n))
	}
	return b
}

// queryVector appends to qv the L2-normalized TF-IDF query vector of
// terms, in ascending term-id order, without zero-weight terms (terms in
// every document contribute nothing to a cosine). The vocabulary and IDF
// cover every document, so the norm counts the query terms that occur only
// in unserved documents, as a query vector over the whole corpus must. The
// norm is summed in ascending term-id order, so vectorization is
// bit-deterministic.
func (ix *Index) queryVector(qv []term, terms []string) []term {
	var buf [64]int32
	ids := ix.resolve(buf[:0], terms)
	var norm float64
	for i := 0; i < len(ids); {
		id, n := idRun(ids, i)
		i += n
		w := float64(n) * ix.idf[id]
		if w == 0 {
			continue
		}
		norm += w * w
		qv = append(qv, term{id: int(id), w: w})
	}
	if norm > 0 {
		norm = math.Sqrt(norm)
		for i := range qv {
			qv[i].w /= norm
		}
	}
	return qv
}

// score is the one exact accumulator. It walks the query terms' postings in
// ascending term-id order into pooled scratch, adding q.w·w to each
// document's slot, then keeps the documents at or above threshold, mapped
// to document ordinals, unsorted, and counts the postings it walked. A
// positive threshold can only admit touched documents, since an untouched
// score is exactly zero; otherwise every slot is a candidate.
func (ix *Index) score(qv []term, threshold float64) ([]Match, int) {
	acc, _ := ix.scratch.Get().(*accumulator)
	if acc == nil {
		acc = &accumulator{score: make([]float64, len(ix.docs)), seen: make([]bool, len(ix.docs))}
	}
	walked := 0
	for _, q := range qv {
		lo, hi := ix.start[q.id], ix.start[q.id+1]
		walked += hi - lo
		ws := ix.w[lo:hi]
		for i, d := range ix.post[lo:hi] {
			if !acc.seen[d] {
				acc.seen[d] = true
				acc.touched = append(acc.touched, d)
			}
			acc.score[d] += q.w * ws[i]
		}
	}
	// the match list is allocated once at its exact size
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
				out = append(out, Match{Index: int(ix.docs[d]), Score: s})
			}
		}
	} else {
		// scores are non-negative: every slot clears the threshold (unless
		// it is NaN)
		out = make([]Match, 0, len(ix.docs))
		for d, s := range acc.score {
			if s >= threshold {
				out = append(out, Match{Index: int(ix.docs[d]), Score: s})
			}
		}
	}
	for _, d := range acc.touched {
		acc.score[d], acc.seen[d] = 0, false
	}
	acc.touched = acc.touched[:0]
	ix.scratch.Put(acc)
	return out, walked
}
