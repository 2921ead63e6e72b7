package vsm

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// keyRounds random corpora back each query-key property.
const keyRounds = 100

// keyQuery draws a query over the corpus vocabulary plus terms no document
// uses.
func keyQuery(rng *rand.Rand) []string {
	q := randPropTerms(rng, 0, 8, propVocab)
	for rng.Intn(2) == 0 {
		q = append(q, []string{"23", "1.85x", "zyzzyva"}[rng.Intn(3)])
	}
	return q
}

// keyCorpus builds a random index over propVocab, with terms drawn from
// only part of it so that some propVocab terms are out of vocabulary.
func keyCorpus(rng *rand.Rand) *Index {
	pool := propVocab[:5+rng.Intn(len(propVocab)-5)]
	docs := make([][]string, 1+rng.Intn(30))
	for i := range docs {
		docs[i] = randPropTerms(rng, 1, 12, pool)
	}
	return BuildFromTerms(docs, randomMask(rng, len(docs)))
}

// TestQueryKeyIgnoresOrderAndUnusedTerms: permuting a query's terms or
// adding terms the index does not know keeps its key.
func TestQueryKeyIgnoresOrderAndUnusedTerms(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for round := 0; round < keyRounds; round++ {
		ix := keyCorpus(rng)
		q := keyQuery(rng)
		key := ix.AppendQueryKey(nil, q)
		perm := make([]string, len(q))
		for i, j := range rng.Perm(len(q)) {
			perm[i] = q[j]
		}
		if got := ix.AppendQueryKey(nil, perm); !bytes.Equal(got, key) {
			t.Fatalf("round %d: %q permuted to %q changes the key", round, q, perm)
		}
		extra := append(append([]string(nil), q...), "zyzzyva", "42%")
		for _, term := range propVocab {
			if _, ok := ix.vocab[term]; !ok {
				extra = append(extra, term)
			}
		}
		if got := ix.AppendQueryKey(nil, extra); !bytes.Equal(got, key) {
			t.Fatalf("round %d: unknown terms %q change the key of %q", round, extra[len(q):], q)
		}
	}
}

// TestQueryKeyEqualMeansEqualMatches: queries with equal keys score
// Float64bits-identically, at any threshold. Each
// random query is paired with a reordering of itself plus unknown terms,
// besides whatever random queries collide.
func TestQueryKeyEqualMeansEqualMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	compared := 0
	for round := 0; round < keyRounds; round++ {
		ix := keyCorpus(rng)
		byKey := map[string][]string{}
		var prev []string
		for i := 0; i < 30; i++ {
			q := keyQuery(rng)
			if i%2 == 1 {
				// the previous query reordered, with unknown terms added
				q = append(slices.Clone(prev), "zyzzyva", "23")
				rng.Shuffle(len(q), func(a, b int) { q[a], q[b] = q[b], q[a] })
			}
			prev = q
			key := string(ix.AppendQueryKey(nil, q))
			first, ok := byKey[key]
			if !ok {
				byKey[key] = q
				continue
			}
			compared++
			for _, threshold := range []float64{math.Inf(-1), positive, DefaultThreshold} {
				if got, want := run(ix, q, threshold), run(ix, first, threshold); !matchesEqual(got, want) {
					t.Fatalf("round %d @%v: %q and %q share a key but score %v vs %v",
						round, threshold, q, first, got, want)
				}
			}
		}
	}
	if compared < keyRounds {
		t.Fatalf("only %d queries shared a key with another", compared)
	}
}

// TestQueryKeyCountsOccurrences: one more occurrence of an in-vocabulary
// term changes the key (a cosine query vector weighs term frequency).
func TestQueryKeyCountsOccurrences(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for round := 0; round < keyRounds; round++ {
		ix := keyCorpus(rng)
		q := keyQuery(rng)
		key := ix.AppendQueryKey(nil, q)
		for term := range ix.vocab {
			more := append(append([]string(nil), q...), term)
			if bytes.Equal(ix.AppendQueryKey(nil, more), key) {
				t.Fatalf("round %d: adding %q to %q keeps the key", round, term, q)
			}
		}
	}
}

// TestQueryKeyPerIndex: two indexes built from identical term lists, or an
// index and its rebuild, never share a key, even for the same query.
func TestQueryKeyPerIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	seen := map[string]int{}
	for round := 0; round < keyRounds; round++ {
		docs := randomTermLists(rng, 1+rng.Intn(20))
		a, b := BuildFromTerms(docs, nil), BuildFromTerms(docs, nil)
		c, err := a.Rebuild(nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, ix := range []*Index{a, b, c} {
			for _, q := range [][]string{nil, {"term01", "common"}, {"zyzzyva"}} {
				key := string(ix.AppendQueryKey(nil, q))
				if prev, ok := seen[key]; ok && prev != round {
					t.Fatalf("round %d: %q keys as in round %d", round, q, prev)
				}
				seen[key] = round
			}
		}
		for _, q := range [][]string{nil, {"term01", "common"}} {
			if ka, kb := a.AppendQueryKey(nil, q), b.AppendQueryKey(nil, q); bytes.Equal(ka, kb) {
				t.Fatalf("round %d: twin indexes share the key of %q", round, q)
			}
		}
	}
}

// mapQueryVector is the query vectorization the resolve step replaced: a
// term-frequency map, sorted by id before the norm. The new one must match
// it bit for bit.
func mapQueryVector(ix *Index, terms []string) []term {
	tf := map[int]float64{}
	for _, t := range terms {
		if id, ok := ix.vocab[t]; ok {
			tf[id]++
		}
	}
	qv := make([]term, 0, len(tf))
	for id, f := range tf {
		if w := f * ix.idf[id]; w != 0 {
			qv = append(qv, term{id: id, w: w})
		}
	}
	sort.Slice(qv, func(a, b int) bool { return qv[a].id < qv[b].id })
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
	return qv
}

// TestQueryVectorMatchesMapReference: resolving by sort gives the query
// vectors the term-frequency map gave, Float64bits-identically.
func TestQueryVectorMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for round := 0; round < keyRounds; round++ {
		docs := randomTermLists(rng, 1+rng.Intn(20))
		ix := BuildFromTerms(docs, nil)
		q := append(randPropTerms(rng, 0, 10, docs[rng.Intn(len(docs))]), "common", "zyzzyva")
		got, want := ix.queryVector(nil, q), mapQueryVector(ix, q)
		if len(got) != len(want) {
			t.Fatalf("round %d: %d components, want %d", round, len(got), len(want))
		}
		for i := range want {
			if got[i].id != want[i].id || math.Float64bits(got[i].w) != math.Float64bits(want[i].w) {
				t.Fatalf("round %d component %d: %+v, want %+v", round, i, got[i], want[i])
			}
		}
	}
}
