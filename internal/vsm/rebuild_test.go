package vsm

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/doc"
	"repro/internal/textproc"
)

// randomTermLists generates documents over a small shared vocabulary so that
// document frequencies, zero-IDF terms, and repeated terms all occur.
func randomTermLists(rng *rand.Rand, n int) [][]string {
	vocab := make([]string, 30)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("term%02d", i)
	}
	lists := make([][]string, n)
	for i := range lists {
		m := 1 + rng.Intn(12)
		terms := make([]string, m)
		for j := range terms {
			terms[j] = vocab[rng.Intn(len(vocab))]
		}
		// "common" appears in every document → IDF 0 → zero-weight entries
		lists[i] = append(terms, "common")
	}
	return lists
}

// randomEdit derives a successor document from termLists: each old document
// is kept (possibly at a shifted position) or dropped, and new documents are
// spliced in. Returns the successor's full term lists plus the kept pairs
// and added docs that describe it for Rebuild.
func randomEdit(rng *rand.Rand, termLists [][]string) ([][]string, []doc.Kept, []AddedDoc) {
	var next [][]string
	var kept []doc.Kept
	var added []AddedDoc
	addNew := func() {
		m := 1 + rng.Intn(8)
		terms := make([]string, m)
		for j := range terms {
			terms[j] = fmt.Sprintf("term%02d", rng.Intn(35)) // may extend the vocab
		}
		added = append(added, AddedDoc{Pos: len(next), Terms: terms})
		next = append(next, terms)
	}
	for i, terms := range termLists {
		for rng.Intn(4) == 0 {
			addNew()
		}
		if rng.Intn(5) == 0 {
			continue // removed
		}
		kept = append(kept, doc.Kept{Old: i, New: len(next)})
		next = append(next, terms)
	}
	for rng.Intn(3) == 0 {
		addNew()
	}
	return next, kept, added
}

// sameIndex compares two indexes exhaustively: global statistics bitwise,
// and the document map, postings and weights.
func sameIndex(t *testing.T, got, want *Index) {
	t.Helper()
	if got.n != want.n {
		t.Fatalf("shape: n %d vs %d", got.n, want.n)
	}
	if len(got.vocab) != len(want.vocab) {
		t.Fatalf("vocab size: %d vs %d", len(got.vocab), len(want.vocab))
	}
	for term, id := range want.vocab {
		if got.vocab[term] != id {
			t.Fatalf("vocab[%q]: %d vs %d", term, got.vocab[term], id)
		}
	}
	for id := range want.idf {
		if math.Float64bits(got.idf[id]) != math.Float64bits(want.idf[id]) {
			t.Fatalf("idf[%d]: %x vs %x", id, got.idf[id], want.idf[id])
		}
	}
	if !slices.Equal(got.docs, want.docs) || !slices.Equal(got.start, want.start) || !slices.Equal(got.post, want.post) {
		t.Fatal("document map or postings differ")
	}
	for wt := range want.w {
		for i := range want.w[wt] {
			if math.Float64bits(got.w[wt][i]) != math.Float64bits(want.w[wt][i]) {
				t.Fatalf("weighting %d posting %d: %x vs %x", wt, i, got.w[wt][i], want.w[wt][i])
			}
		}
	}
}

// TestRebuildBitIdentical is the incremental≡full oracle at the index layer:
// for random corpora, random edits and random served masks (the
// predecessor's and the successor's drawn independently), Rebuild over
// (kept, added) must equal a from-scratch BuildFromTerms of the successor's
// full term lists under its mask — every IDF, posting weight, and query
// score Float64bits-identical — and answer as the dense oracle over every
// document, filtered to the mask.
func TestRebuildBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	queries := []string{
		"term03 term17 common", "term00", "common term29 term29", "term34 term05",
	}
	for round := 0; round < 60; round++ {
		termLists := randomTermLists(rng, 3+rng.Intn(40))
		ix := BuildFromTerms(termLists, randomMask(rng, len(termLists)))
		next, kept, added := randomEdit(rng, termLists)
		served := randomMask(rng, len(next))

		got, err := ix.Rebuild(kept, added, served)
		if err != nil {
			t.Fatalf("round %d: Rebuild: %v", round, err)
		}
		// added documents carry no identity here, as in the cold build
		want := BuildFromTerms(next, served)
		sameIndex(t, got, want)

		all := BuildFromTerms(next, nil)
		for _, q := range queries {
			terms := textproc.NormalizeTerms(q)
			for _, backend := range Backends() {
				sameScores(t, fmt.Sprintf("round %d: %s %q", round, backend, q),
					engineScores(t, got, terms, backend), engineScores(t, want, terms, backend))
			}
			sameAsMaskedOracle(t, fmt.Sprintf("round %d %q", round, q), got, all, served, terms)
		}
	}
}

// TestRebuildChained checks that Rebuild composes: an index produced by
// Rebuild can itself be rebuilt, with a new served mask at every step, and
// the chain stays bit-identical to rebuilding from scratch at every step.
func TestRebuildChained(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	termLists := randomTermLists(rng, 20)
	ix := BuildFromTerms(termLists, randomMask(rng, len(termLists)))
	for step := 0; step < 10; step++ {
		next, kept, added := randomEdit(rng, termLists)
		served := randomMask(rng, len(next))
		got, err := ix.Rebuild(kept, added, served)
		if err != nil {
			t.Fatalf("step %d: Rebuild: %v", step, err)
		}
		sameIndex(t, got, BuildFromTerms(next, served))
		all := BuildFromTerms(next, nil)
		for _, q := range []string{"term03 term17 common", "term34 term05"} {
			sameAsMaskedOracle(t, fmt.Sprintf("step %d %q", step, q), got, all, served, strings.Fields(q))
		}
		ix, termLists = got, next
	}
}

func TestRebuildValidation(t *testing.T) {
	ix := BuildFromTerms([][]string{{"a"}, {"b"}}, nil)
	cases := []struct {
		name  string
		kept  []doc.Kept
		added []AddedDoc
	}{
		{"gap", []doc.Kept{{Old: 0, New: 0}}, []AddedDoc{{Pos: 2, Terms: []string{"c"}}}},
		{"double", []doc.Kept{{Old: 0, New: 0}, {Old: 1, New: 0}}, nil},
		{"old out of range", []doc.Kept{{Old: 5, New: 0}}, nil},
		{"new negative", []doc.Kept{{Old: 0, New: -1}}, nil},
		{"added collides", []doc.Kept{{Old: 0, New: 0}}, []AddedDoc{{Pos: 0, Terms: []string{"c"}}}},
	}
	for _, tc := range cases {
		if _, err := ix.Rebuild(tc.kept, tc.added, nil); err == nil {
			t.Errorf("%s: want error, got nil", tc.name)
		}
	}
	// the successor's mask must cover exactly its documents
	if _, err := ix.Rebuild([]doc.Kept{{Old: 0, New: 0}, {Old: 1, New: 1}}, nil, []bool{true}); err == nil {
		t.Error("misaligned mask: want error, got nil")
	}
	// a full tiling succeeds, including the empty successor
	if _, err := ix.Rebuild(nil, nil, nil); err != nil {
		t.Errorf("empty successor: %v", err)
	}
	if _, err := ix.Rebuild([]doc.Kept{{Old: 1, New: 0}}, []AddedDoc{{Pos: 1, Terms: []string{"c"}}}, nil); err != nil {
		t.Errorf("valid tiling: %v", err)
	}
}

// TestRebuildEqualsColdBuild: three independent chains of six Rebuilds over
// random edit scripts, with a served mask that changes at every step, stay
// bit-identical to a cold build of each successor under the same mask, and
// answer every diff query as the dense oracle over an index of every
// document, filtered to the mask.
func TestRebuildEqualsColdBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for chain := 0; chain < 3; chain++ {
		termLists := randomTermLists(rng, 20)
		ix := BuildFromTerms(termLists, randomMask(rng, len(termLists)))
		for step := 0; step < 6; step++ {
			next, kept, added := randomEdit(rng, termLists)
			served := randomMask(rng, len(next))
			got, err := ix.Rebuild(kept, added, served)
			if err != nil {
				t.Fatalf("chain %d step %d: Rebuild: %v", chain, step, err)
			}
			sameIndex(t, got, BuildFromTerms(next, served))
			all := BuildFromTerms(next, nil)
			for _, q := range diffQueries {
				sameAsMaskedOracle(t, fmt.Sprintf("chain %d step %d %q", chain, step, q), got, all, served, strings.Fields(q))
			}
			ix, termLists = got, next
		}
	}
}

// TestRebuildEmptySuccessor: an edit that drops every document leaves an
// index of none, which matches nothing under either backend even at a
// threshold that admits every document, and documents added to it again
// give the cold build of those documents.
func TestRebuildEmptySuccessor(t *testing.T) {
	ix := BuildFromTerms([][]string{{"a"}, {"b"}}, nil)
	empty, err := ix.Rebuild(nil, nil, nil)
	if err != nil {
		t.Fatalf("empty successor: %v", err)
	}
	if empty.n != 0 || len(empty.docs) != 0 {
		t.Fatalf("empty successor: %d documents, %d served", empty.n, len(empty.docs))
	}
	for _, backend := range Backends() {
		if got := run(t, empty, []string{"a"}, QueryOpts{Backend: backend, Threshold: -1}); len(got) != 0 {
			t.Fatalf("%s: empty successor matched %v", backend, got)
		}
	}
	lists := [][]string{{"a", "c"}, {"c"}, {"b", "b"}}
	added := make([]AddedDoc, len(lists))
	for i, terms := range lists {
		added[i] = AddedDoc{Pos: i, Terms: terms}
	}
	refilled, err := empty.Rebuild(nil, added, nil)
	if err != nil {
		t.Fatalf("refill: %v", err)
	}
	sameIndex(t, refilled, BuildFromTerms(lists, nil))
}
