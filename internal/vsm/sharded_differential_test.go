package vsm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/doc"
)

// The sharded differential suite: metamorphic properties pinning a
// partitioned Index to the one-partition layout bit-for-bit. Every
// comparison is on math.Float64bits — "close" is not equivalence.

// idsFor stamps deterministic unique identities for a term-list corpus.
func idsFor(n int, gen *int) []doc.SentenceID {
	ids := make([]doc.SentenceID, n)
	for i := range ids {
		ids[i] = doc.SentenceID(fmt.Sprintf("sent-%06d", *gen))
		*gen++
	}
	return ids
}

// diffQueries exercises in-vocab, out-of-vocab, zero-IDF ("common" is in
// every generated document), and repeated terms.
var diffQueries = []string{
	"term03 term17 common",
	"term00",
	"common term29 term29",
	"term34 term05",
	"nosuchterm",
}

// TestShardedBitIdenticalAcrossShardCounts is the heart of the suite: 100
// random corpora, each with a random served mask and indexed at every
// partition count in 1..8, must produce Float64bits-identical matches for
// both backends to the dense oracle over the one-partition index of every
// document, filtered to the mask — at the serving thresholds and at
// thresholds <= 0, which admit every served document.
func TestShardedBitIdenticalAcrossShardCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	gen := 0
	for round := 0; round < 100; round++ {
		termLists := randomTermLists(rng, 3+rng.Intn(40))
		ids := idsFor(len(termLists), &gen)
		served := randomMask(rng, len(termLists))
		all := BuildFromTerms(termLists, nil, nil, 1)
		q := splitTerms(diffQueries[round%len(diffQueries)])
		for nShards := 1; nShards <= 8; nShards++ {
			sh := BuildFromTerms(termLists, ids, served, nShards)
			if sh.n != all.n || sh.Partitions() != nShards {
				t.Fatalf("round %d shards %d: Len %d vs %d, %d partitions", round, nShards, sh.n, all.n, sh.Partitions())
			}
			sameAsMaskedOracle(t, fmt.Sprintf("round %d shards %d query %q", round, nShards, q), sh, all, served, q)
		}
	}
}

// TestShardedPermutationInvariance: permuting the document order (identities
// riding along) permutes the scores and nothing else — scores stay
// bit-identical per document, at several partition counts.
func TestShardedPermutationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	gen := 0
	for round := 0; round < 25; round++ {
		termLists := randomTermLists(rng, 5+rng.Intn(30))
		ids := idsFor(len(termLists), &gen)
		perm := rng.Perm(len(termLists))
		permLists := make([][]string, len(termLists))
		permIDs := make([]doc.SentenceID, len(ids))
		for newPos, oldPos := range perm {
			permLists[newPos] = termLists[oldPos]
			permIDs[newPos] = ids[oldPos]
		}
		for _, nShards := range []int{1, 2, 3, 5, 8} {
			orig := BuildFromTerms(termLists, ids, nil, nShards)
			shuf := BuildFromTerms(permLists, permIDs, nil, nShards)
			for _, q := range diffQueries {
				for _, backend := range Backends() {
					os := engineScores(t, orig, splitTerms(q), backend)
					ss := engineScores(t, shuf, splitTerms(q), backend)
					for newPos, oldPos := range perm {
						if math.Float64bits(ss[newPos]) != math.Float64bits(os[oldPos]) {
							t.Fatalf("round %d shards %d %s %q: permuted doc %d (was %d): %x vs %x",
								round, nShards, backend, q, newPos, oldPos, ss[newPos], os[oldPos])
						}
					}
				}
			}
		}
	}
}

// TestShardedQueryAndTopKMatchMonolithic pins the match lists: the full
// list at a threshold and its best-k prefixes must reproduce the
// one-partition lists exactly — same indices, same score bits, same order.
// Duplicated documents force score ties, so this also pins tie stability:
// ties resolve by ascending global index in both layouts.
func TestShardedQueryAndTopKMatchMonolithic(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	gen := 0
	for round := 0; round < 40; round++ {
		termLists := randomTermLists(rng, 4+rng.Intn(24))
		// duplicate a few documents verbatim: identical term lists score
		// identically, producing exact ties at distinct indices
		for d := 0; d < 3 && len(termLists) > 0; d++ {
			termLists = append(termLists, termLists[rng.Intn(len(termLists))])
		}
		ids := idsFor(len(termLists), &gen)
		mono := BuildFromTerms(termLists, nil, nil, 1)
		for _, nShards := range []int{1, 2, 4, 7, 8} {
			sh := BuildFromTerms(termLists, ids, nil, nShards)
			for _, q := range diffQueries {
				for _, backend := range Backends() {
					for _, threshold := range []float64{DefaultThreshold, 0.01, 0} {
						o := QueryOpts{Backend: backend, Threshold: threshold}
						want := run(t, mono, splitTerms(q), o)
						got := run(t, sh, splitTerms(q), o)
						label := fmt.Sprintf("round %d shards %d %s(%q,%v)", round, nShards, backend, q, threshold)
						for _, k := range []int{0, 1, 3, 10, 1000} {
							sameMatches(t, fmt.Sprintf("%s top %d", label, k), prefix(got, k), prefix(want, k))
						}
					}
				}
			}
		}
	}
}

// shardedEdit extends randomEdit with identity bookkeeping: kept sentences
// carry their IDs forward (so they stay in their partition), added
// sentences get fresh ones.
func shardedEdit(rng *rand.Rand, termLists [][]string, ids []doc.SentenceID, gen *int) ([][]string, []doc.SentenceID, []doc.Kept, []AddedDoc) {
	next, kept, added := randomEdit(rng, termLists)
	nextIDs := make([]doc.SentenceID, len(next))
	for _, k := range kept {
		nextIDs[k.New] = ids[k.Old]
	}
	for i := range added {
		id := doc.SentenceID(fmt.Sprintf("sent-%06d", *gen))
		*gen++
		added[i].ID = id
		nextIDs[added[i].Pos] = id
	}
	return next, nextIDs, kept, added
}

// TestShardedRebuildEqualsColdBuild: a partitioned Rebuild over a random
// edit script, with a served mask that changes at every step, is
// bit-identical to a cold partitioned build of the successor corpus under
// the same mask — including the placement of every kept sentence — and
// both answer as the dense oracle over the one-partition index of every
// document, filtered to the mask. The chain runs 6 steps, covering the
// acceptance criterion of >= 3 chained incremental rebuilds.
func TestShardedRebuildEqualsColdBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	gen := 0
	for _, nShards := range []int{2, 4, 8} {
		termLists := randomTermLists(rng, 20)
		ids := idsFor(len(termLists), &gen)
		sh := BuildFromTerms(termLists, ids, randomMask(rng, len(termLists)), nShards)
		for step := 0; step < 6; step++ {
			next, nextIDs, kept, added := shardedEdit(rng, termLists, ids, &gen)
			served := randomMask(rng, len(next))
			got, err := sh.Rebuild(kept, added, served)
			if err != nil {
				t.Fatalf("shards %d step %d: Rebuild: %v", nShards, step, err)
			}
			cold := BuildFromTerms(next, nextIDs, served, nShards)
			sameIndex(t, got, cold)
			all := BuildFromTerms(next, nil, nil, 1)
			for _, q := range diffQueries {
				sameAsMaskedOracle(t, fmt.Sprintf("shards %d step %d %q", nShards, step, q), got, all, served, splitTerms(q))
			}
			sh, termLists, ids = got, next, nextIDs
		}
	}
}

// TestShardedRebuildValidation: a partitioned Rebuild enforces the same
// tiling contract as the one-partition one.
func TestShardedRebuildValidation(t *testing.T) {
	gen := 0
	lists := [][]string{{"a"}, {"b"}}
	sh := BuildFromTerms(lists, idsFor(2, &gen), nil, 2)
	if _, err := sh.Rebuild([]doc.Kept{{Old: 0, New: 0}}, []AddedDoc{{Pos: 2, Terms: []string{"c"}, ID: "x"}}, nil); err == nil {
		t.Error("gap: want error, got nil")
	}
	if _, err := sh.Rebuild([]doc.Kept{{Old: 0, New: 0}, {Old: 1, New: 0}}, nil, nil); err == nil {
		t.Error("double assignment: want error, got nil")
	}
	if _, err := sh.Rebuild([]doc.Kept{{Old: 5, New: 0}}, nil, nil); err == nil {
		t.Error("old out of range: want error, got nil")
	}
	next, err := sh.Rebuild(nil, nil, nil)
	if err != nil {
		t.Fatalf("empty successor: %v", err)
	}
	if next.n != 0 || next.Partitions() != 2 {
		t.Fatalf("empty successor: Len %d Partitions %d, want 0 and 2", next.n, next.Partitions())
	}
}

// TestShardedSerialScoringBitIdentical: serial scoring keeps the fan-out on
// one goroutine and must not change a single bit.
func TestShardedSerialScoringBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	gen := 0
	termLists := randomTermLists(rng, 50)
	sh := BuildFromTerms(termLists, idsFor(len(termLists), &gen), nil, 4)
	for _, q := range diffQueries {
		for _, backend := range Backends() {
			o := QueryOpts{Backend: backend, Threshold: -1}
			par := run(t, sh, splitTerms(q), o)
			o.Serial = true
			sameMatches(t, "serial vs parallel "+backend+" "+q, run(t, sh, splitTerms(q), o), par)
		}
	}
}

func splitTerms(q string) []string {
	var out []string
	cur := ""
	for _, r := range q + " " {
		if r == ' ' {
			if cur != "" {
				out = append(out, cur)
				cur = ""
			}
			continue
		}
		cur += string(r)
	}
	return out
}
