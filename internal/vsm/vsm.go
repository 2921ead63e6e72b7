// Package vsm implements the Vector Space Model with TF-IDF weighting and
// cosine similarity used by Egeria's Stage II (knowledge recommendation),
// reproducing the paper's equations (1) and (2):
//
//	w(t,s)   = tf(t,s) * log(|S| / |{s' in S : t in s'}|)
//	sim(s,q) = (v_s . v_q) / (|v_s| |v_q|)
//
// It replaces the Gensim TF-IDF/VSM pipeline of the original implementation.
//
// An Index is built under statistics over every document (DESIGN.md §13):
// a document's weights depend only on the corpus-wide vocabulary and IDF
// table and on the document itself, so scores are Float64bits-identical
// whichever subset of the documents is served (has postings). An Index is
// immutable after build and safe for concurrent queries.
package vsm

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/doc"
	"repro/internal/textproc"
)

// DefaultThreshold is the similarity threshold the paper uses to recommend a
// sentence (§3.2: 0.15).
const DefaultThreshold = 0.15

// ErrUnknownBackend reports a request naming a scoring model other than
// the paper's TF-IDF/cosine one.
var ErrUnknownBackend = errors.New("vsm: unknown scoring backend")

// ValidBackend reports whether a request's backend name selects the one
// scoring model: only the empty string and "vsm" do.
func ValidBackend(name string) bool {
	return name == "" || name == "vsm"
}

// Match is one retrieval result.
type Match struct {
	Index int     // document ordinal (sentence index) within the index
	Score float64 // cosine similarity to the query
}

// Index is a TF-IDF weighted vector space over a fixed sentence set. Its
// statistics cover every sentence; its postings cover the served ones, the
// only sentences a query can match. The postings are stored compactly:
// term t's postings are post[start[t]:start[t+1]] in ascending position,
// and w holds each posting's L2-normalized TF-IDF weight (0 for a term in
// every document, which queries never walk).
type Index struct {
	id      uint64 // process-unique, from indexIDs: see AppendQueryKey
	vocab   map[string]int
	idf     []float64     // TF-IDF IDF log(n/df), per term id
	counted []*termCounts // document order, reused by Rebuild
	n       int           // number of sentences, served or not

	docs    []int32 // position -> document ordinal of the served documents, ascending
	start   []int   // per term id, plus a final end offset
	post    []int32 // posting documents, as positions in docs
	w       []float64
	scratch sync.Pool // *accumulator over len(docs) documents
}

// Build constructs an index over raw sentences, normalizing each with
// textproc.NormalizeTerms (tokenize, lowercase, stop/punct removal, Porter
// stemming).
func Build(sentences []string) *Index {
	terms := make([][]string, len(sentences))
	for i, s := range sentences {
		terms[i] = textproc.NormalizeTerms(s)
	}
	return BuildFromTerms(terms, nil)
}

// BuildFromTerms constructs an index over pre-normalized term lists.
//
// served, aligned with termLists, marks the documents that get postings;
// nil serves every document. The statistics — vocabulary, document
// frequencies and the IDF table — always cover every document, so a
// served document's weights and every query vector are the same floats
// whatever the mask. A misaligned non-nil mask panics.
//
// Term ids are assigned in sorted term order, not first-appearance order.
// Because every weight accumulation runs in ascending term-id order, scores
// are a function of the document set alone: permuting the documents yields
// bit-identical scores.
func BuildFromTerms(termLists [][]string, served []bool) *Index {
	if served != nil && len(served) != len(termLists) {
		panic(fmt.Sprintf("vsm: served mask has %d entries for %d documents", len(served), len(termLists)))
	}
	counted := make([]*termCounts, len(termLists))
	var sorted []string
	for i, terms := range termLists {
		counted[i], sorted = countTerms(terms, sorted)
	}
	return build(counted, served)
}

// termCounts is one document's corpus-independent term statistics: its
// unique terms in sorted order with their raw frequencies. Immutable after
// countTerms, so Rebuild shares it between an index and its successor for
// kept sentences.
type termCounts struct {
	terms  []string  // unique terms, sorted
	counts []float64 // raw frequency, aligned with terms
}

// countTerms tallies a term list into its counted form. It sorts a copy of
// terms in sorted, a buffer it returns for the next call, and counts each
// run of equal terms there, so the unique terms come out in order.
func countTerms(terms, sorted []string) (*termCounts, []string) {
	sorted = append(sorted[:0], terms...)
	slices.Sort(sorted)
	unique := 0
	for i, t := range sorted {
		if i == 0 || t != sorted[i-1] {
			unique++
		}
	}
	tc := &termCounts{
		terms:  make([]string, 0, unique),
		counts: make([]float64, 0, unique),
	}
	for i, t := range sorted {
		if i > 0 && t == sorted[i-1] {
			tc.counts[len(tc.counts)-1]++
			continue
		}
		tc.terms = append(tc.terms, t)
		tc.counts = append(tc.counts, 1)
	}
	return tc, sorted
}

// indexIDs numbers the indexes this process builds, from 1.
var indexIDs atomic.Uint64

// build assembles an index from counted documents: the global statistics
// first — vocabulary, document frequencies and the IDF table — then the
// served documents' postings under them (every document's for a nil mask). Each weight is a
// function of the global statistics and its own document only.
func build(counted []*termCounts, served []bool) *Index {
	n := len(counted)
	df := map[string]int{} // counted terms are unique per document already
	for _, tc := range counted {
		for _, t := range tc.terms {
			df[t]++
		}
	}
	terms := make([]string, 0, len(df))
	for t := range df {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	ix := &Index{
		id:      indexIDs.Add(1),
		vocab:   make(map[string]int, len(terms)),
		idf:     make([]float64, len(terms)),
		counted: counted,
		n:       n,
	}
	for id, t := range terms {
		ix.vocab[t] = id
		ix.idf[id] = math.Log(float64(n) / float64(df[t]))
	}
	for g := range counted {
		if served == nil || served[g] {
			ix.docs = append(ix.docs, int32(g))
		}
	}
	ix.fill()
	return ix
}

// fill builds the postings: a counting pass sizes every term's list, then
// each served document (in ascending position, so every list is in
// document order) writes its postings. The TF-IDF weights are
// L2-normalized per document, the norm accumulated in ascending term-id
// order; counted terms are sorted and ids follow sorted term order, so the
// entries arrive in that order without re-sorting.
func (ix *Index) fill() {
	ix.start = make([]int, len(ix.idf)+1)
	for _, g := range ix.docs {
		for _, t := range ix.counted[g].terms {
			ix.start[ix.vocab[t]+1]++
		}
	}
	for t := 1; t < len(ix.start); t++ {
		ix.start[t] += ix.start[t-1]
	}
	size := ix.start[len(ix.start)-1]
	ix.post = make([]int32, size)
	ix.w = make([]float64, size)
	next := append([]int(nil), ix.start[:len(ix.idf)]...)
	var weights []float64
	for pos, g := range ix.docs {
		tc := ix.counted[g]
		weights = weights[:0]
		var norm float64
		for i, t := range tc.terms {
			w := tc.counts[i] * ix.idf[ix.vocab[t]]
			weights = append(weights, w)
			norm += w * w
		}
		if norm > 0 {
			norm = math.Sqrt(norm)
			for i := range weights {
				weights[i] /= norm
			}
		}
		for i, t := range tc.terms {
			id := ix.vocab[t]
			at := next[id]
			next[id]++
			ix.post[at] = int32(pos)
			ix.w[at] = weights[i]
		}
	}
}

// Rebuild constructs the successor index after a document edit. terms holds
// the successor's term lists, one per position; kept pairs map this
// index's sentences (Old position) to successor positions (New), whose term
// counts are reused verbatim. Every position no kept pair covers is counted
// from terms. served is the successor's mask, aligned with its positions
// (nil serves every document). The zero Index holds no documents, so
// rebuilding it with no kept pairs is a cold build.
//
// Global statistics — document frequencies, IDF, and therefore every weight
// — are recomputed from the merged set: IDF is corpus-wide, so one edit can
// shift every weight in the index. What Rebuild skips is the work that does
// not depend on the rest of the corpus: term counting for kept sentences
// here, and tokenization, stemming, and annotation upstream. The result is
// Float64bits-identical to a cold BuildFromTerms of the successor (see
// TestRebuildBitIdentical).
func (ix *Index) Rebuild(kept []doc.Kept, terms [][]string, served []bool) (*Index, error) {
	n := len(terms)
	if served != nil && len(served) != n {
		return nil, fmt.Errorf("vsm: rebuild mask has %d entries for %d documents", len(served), n)
	}
	counted := make([]*termCounts, n)
	for _, k := range kept {
		if k.Old < 0 || k.Old >= ix.n {
			return nil, fmt.Errorf("vsm: rebuild kept old position %d outside [0,%d)", k.Old, ix.n)
		}
		if k.New < 0 || k.New >= n {
			return nil, fmt.Errorf("vsm: rebuild position %d outside [0,%d)", k.New, n)
		}
		if counted[k.New] != nil {
			return nil, fmt.Errorf("vsm: rebuild position %d assigned twice", k.New)
		}
		counted[k.New] = ix.counted[k.Old]
	}
	var sorted []string
	for pos, tc := range counted {
		if tc == nil {
			counted[pos], sorted = countTerms(terms[pos], sorted)
		}
	}
	return build(counted, served), nil
}
