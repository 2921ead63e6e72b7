// Package vsm implements the Vector Space Model with TF-IDF weighting and
// cosine similarity used by Egeria's Stage II (knowledge recommendation),
// reproducing the paper's equations (1) and (2):
//
//	w(t,s)   = tf(t,s) * log(|S| / |{s' in S : t in s'}|)
//	sim(s,q) = (v_s . v_q) / (|v_s| |v_q|)
//
// It replaces the Gensim TF-IDF/VSM pipeline of the original implementation.
// Okapi BM25 over the same postings is the retrieval ablation, selectable
// per query.
//
// An Index is built under statistics over every document (DESIGN.md §13):
// a document's weights depend only on the corpus-wide vocabulary, IDF
// table and BM25 length average and on the document itself, so scores are
// Float64bits-identical whichever subset of the documents is served (has
// postings). An Index is immutable after build and safe for concurrent
// queries.
package vsm

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/doc"
	"repro/internal/textproc"
)

// DefaultThreshold is the similarity threshold the paper uses to recommend a
// sentence (§3.2: 0.15).
const DefaultThreshold = 0.15

// Backend names a query's weighting.
const (
	// BackendVSM is the paper's Stage-II model: TF-IDF weights with cosine
	// similarity (Eqs. 1-2) and the 0.15 recommendation threshold. It is the
	// default backend everywhere a backend is selectable.
	BackendVSM = "vsm"
	// BackendBM25 is Okapi BM25 over the same postings — the lexical
	// retrieval ablation. Its scores are unbounded and comparable only with
	// other BM25 scores.
	BackendBM25 = "bm25"
)

// ErrUnknownBackend reports a backend name the index does not know.
var ErrUnknownBackend = errors.New("vsm: unknown scoring backend")

// Backends lists the scoring backends every Index offers, default first.
func Backends() []string { return []string{BackendVSM, BackendBM25} }

// ValidBackend reports whether name selects a known backend; the empty
// string selects the default (VSM) and is valid.
func ValidBackend(name string) bool {
	return name == "" || name == BackendVSM || name == BackendBM25
}

// Weightings: the index of a backend's weight in every posting, in
// Backends() order.
const (
	wVSM  = 0
	wBM25 = 1
)

// weightingOf resolves a backend name to its weighting.
func weightingOf(backend string) (int, error) {
	switch backend {
	case "", BackendVSM:
		return wVSM, nil
	case BackendBM25:
		return wBM25, nil
	}
	return 0, fmt.Errorf("%w: %q (have %s)", ErrUnknownBackend, backend, strings.Join(Backends(), ", "))
}

// BM25 parameters (standard Robertson/Spärck-Jones defaults).
const (
	bm25K1 = 1.2
	bm25B  = 0.75
)

// Match is one retrieval result.
type Match struct {
	Index int     // document ordinal (sentence index) within the index
	Score float64 // similarity under the query's backend
}

// Index is a TF-IDF (and BM25) weighted vector space over a fixed sentence
// set. Its statistics cover every sentence; its postings cover the served
// ones, the only sentences a query can match. The postings are stored
// compactly: term t's postings are post[start[t]:start[t+1]] in ascending
// position, and w[wVSM]/w[wBM25] hold each posting's weight under the two
// backends — the L2-normalized TF-IDF weight (0 for a term in every
// document, which cosine queries never walk) and the precomputed Okapi
// contribution idf·tf·(k1+1)/(tf+norm).
type Index struct {
	vocab   map[string]int
	idf     []float64     // TF-IDF IDF log(n/df), per term id
	counted []*termCounts // document order, reused by Rebuild
	n       int           // number of sentences, served or not

	docs    []int32 // position -> document ordinal of the served documents, ascending
	start   []int   // per term id, plus a final end offset
	post    []int32 // posting documents, as positions in docs
	w       [2][]float64
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
// frequencies, both IDF tables and the BM25 length average — always cover
// every document, so a served document's weights and every query vector
// are the same floats whatever the mask. A misaligned non-nil mask panics.
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
	for i, terms := range termLists {
		counted[i] = countTerms(terms)
	}
	return build(counted, served)
}

// termCounts is one document's corpus-independent term statistics: its
// unique terms in sorted order with their raw frequencies, plus the total
// term count (the BM25 length norm). Immutable after countTerms, so Rebuild
// shares it between an index and its successor for kept sentences.
type termCounts struct {
	terms  []string  // unique terms, sorted
	counts []float64 // raw frequency, aligned with terms
	total  int32     // total term occurrences including duplicates
}

// countTerms tallies a term list into its counted form.
func countTerms(terms []string) *termCounts {
	tf := make(map[string]float64, len(terms))
	for _, t := range terms {
		tf[t]++
	}
	tc := &termCounts{
		terms:  make([]string, 0, len(tf)),
		counts: make([]float64, 0, len(tf)),
		total:  int32(len(terms)),
	}
	for t := range tf {
		tc.terms = append(tc.terms, t)
	}
	sort.Strings(tc.terms)
	for _, t := range tc.terms {
		tc.counts = append(tc.counts, tf[t])
	}
	return tc
}

// build assembles an index from counted documents: the global statistics
// first — vocabulary, document frequencies, both IDF tables and the BM25
// length average, summed in document order — then the served documents'
// postings under them (every document's for a nil mask). Each weight is a
// function of the global statistics and its own document only.
func build(counted []*termCounts, served []bool) *Index {
	n := len(counted)
	df := map[string]int{} // counted terms are unique per document already
	var total float64
	for _, tc := range counted {
		for _, t := range tc.terms {
			df[t]++
		}
		total += float64(tc.total)
	}
	terms := make([]string, 0, len(df))
	for t := range df {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	ix := &Index{
		vocab:   make(map[string]int, len(terms)),
		idf:     make([]float64, len(terms)),
		counted: counted,
		n:       n,
	}
	bidf := make([]float64, len(terms))
	for id, t := range terms {
		ix.vocab[t] = id
		f := float64(df[t])
		ix.idf[id] = math.Log(float64(n) / f)
		bidf[id] = math.Log((float64(n)-f+0.5)/(f+0.5) + 1)
	}
	var avg float64
	if n > 0 {
		avg = total / float64(n)
	}
	for g := range counted {
		if served == nil || served[g] {
			ix.docs = append(ix.docs, int32(g))
		}
	}
	ix.fill(bidf, avg)
	return ix
}

// fill builds the postings: a counting pass sizes every term's list, then
// each served document (in ascending position, so every list is in
// document order) writes its postings. The TF-IDF weights are
// L2-normalized per document, the norm accumulated in ascending term-id
// order; counted terms are sorted and ids follow sorted term order, so the
// entries arrive in that order without re-sorting.
func (ix *Index) fill(bidf []float64, avg float64) {
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
	ix.w = [2][]float64{make([]float64, size), make([]float64, size)}
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
		lenNorm := bm25K1
		if avg > 0 {
			lenNorm = bm25K1 * (1 - bm25B + bm25B*float64(tc.total)/avg)
		}
		for i, t := range tc.terms {
			id := ix.vocab[t]
			tf := tc.counts[i]
			at := next[id]
			next[id]++
			ix.post[at] = int32(pos)
			ix.w[wVSM][at] = weights[i]
			ix.w[wBM25][at] = bidf[id] * tf * (bm25K1 + 1) / (tf + lenNorm)
		}
	}
}

// AddedDoc is one new sentence handed to Rebuild: its position in the
// successor document and its normalized term list.
type AddedDoc struct {
	Pos   int
	Terms []string
}

// Rebuild constructs the successor index after a document edit: kept pairs
// map this index's sentences (Old position) to their new positions, reusing
// their term statistics verbatim; added carries the term lists of new
// sentences at their new positions. Together they must tile the successor
// document exactly — every position in [0, kept+added) assigned once.
// served is the successor's mask, aligned with its positions (nil serves
// every document).
//
// Global statistics — document frequencies, IDF, and therefore every weight
// — are recomputed from the merged set: IDF is corpus-wide, so one edit can
// shift every weight in the index. What Rebuild skips is the work that does
// not depend on the rest of the corpus: term counting here, and
// tokenization, stemming, and annotation upstream. The result is
// Float64bits-identical to a cold BuildFromTerms of the successor (see
// TestRebuildBitIdentical).
func (ix *Index) Rebuild(kept []doc.Kept, added []AddedDoc, served []bool) (*Index, error) {
	n := len(kept) + len(added)
	if served != nil && len(served) != n {
		return nil, fmt.Errorf("vsm: rebuild mask has %d entries for %d documents", len(served), n)
	}
	counted := make([]*termCounts, n)
	place := func(pos int, tc *termCounts) error {
		if pos < 0 || pos >= n {
			return fmt.Errorf("vsm: rebuild position %d outside [0,%d)", pos, n)
		}
		if counted[pos] != nil {
			return fmt.Errorf("vsm: rebuild position %d assigned twice", pos)
		}
		counted[pos] = tc
		return nil
	}
	for _, k := range kept {
		if k.Old < 0 || k.Old >= ix.n {
			return nil, fmt.Errorf("vsm: rebuild kept old position %d outside [0,%d)", k.Old, ix.n)
		}
		if err := place(k.New, ix.counted[k.Old]); err != nil {
			return nil, err
		}
	}
	for _, a := range added {
		if err := place(a.Pos, countTerms(a.Terms)); err != nil {
			return nil, err
		}
	}
	return build(counted, served), nil
}
