package doc_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/doc"
)

func keysOf(sents [][2]string) []doc.Key {
	keys := make([]doc.Key, len(sents))
	for i, s := range sents {
		keys[i] = doc.Key{Section: s[0], Text: s[1]}
	}
	return keys
}

func TestDiffIdentical(t *testing.T) {
	keys := keysOf([][2]string{{"s", "a"}, {"s", "b"}, {"t", "a"}, {"s", "a"}})
	d := doc.Diff(keys, keys)
	if len(d.Added) != 0 || len(d.Removed) != 0 || len(d.Kept) != 4 {
		t.Fatalf("identical docs: got %+v", d)
	}
	if d.ChangeRatio() != 0 || d.ReuseRatio() != 1 {
		t.Fatalf("identical docs: change=%v reuse=%v", d.ChangeRatio(), d.ReuseRatio())
	}
	for _, k := range d.Kept {
		if k.Old != k.New {
			t.Fatalf("identical docs: kept pair %+v not positional identity", k)
		}
	}
}

func TestDiffEmptyEdges(t *testing.T) {
	keys := keysOf([][2]string{{"s", "a"}, {"s", "b"}})
	if d := doc.Diff(nil, keys); len(d.Added) != 2 || len(d.Kept) != 0 || len(d.Removed) != 0 {
		t.Fatalf("nil→doc: %+v", d)
	}
	if d := doc.Diff(keys, nil); len(d.Removed) != 2 || len(d.Kept) != 0 || len(d.Added) != 0 {
		t.Fatalf("doc→nil: %+v", d)
	}
	if d := doc.Diff(nil, nil); d.ChangeRatio() != 0 {
		t.Fatalf("nil→nil ratio: %v", d.ChangeRatio())
	}
}

// editScript applies n random edits (insert, delete, move, duplicate,
// rewrite) to a sentence list and returns the result plus the set of
// original indices whose sentences were never themselves touched (they may
// still have moved position).
func editScript(rng *rand.Rand, sents [][2]string, n int) (out [][2]string, untouched map[string]bool) {
	out = append([][2]string(nil), sents...)
	touched := map[string]bool{}
	key := func(s [2]string) string { return s[0] + "\x00" + s[1] }
	for e := 0; e < n; e++ {
		switch op := rng.Intn(5); op {
		case 0: // insert a brand-new sentence
			i := rng.Intn(len(out) + 1)
			s := [2]string{fmt.Sprintf("s%d", rng.Intn(6)), fmt.Sprintf("new sentence %d-%d", e, rng.Int63())}
			out = append(out[:i], append([][2]string{s}, out[i:]...)...)
		case 1: // delete
			if len(out) == 0 {
				continue
			}
			i := rng.Intn(len(out))
			touched[key(out[i])] = true
			out = append(out[:i], out[i+1:]...)
		case 2: // move (positions change, identity must not)
			if len(out) < 2 {
				continue
			}
			i := rng.Intn(len(out))
			s := out[i]
			out = append(out[:i], out[i+1:]...)
			j := rng.Intn(len(out) + 1)
			out = append(out[:j], append([][2]string{s}, out[j:]...)...)
		case 3: // duplicate an existing sentence (ordinals shift for its copies)
			if len(out) == 0 {
				continue
			}
			i := rng.Intn(len(out))
			s := out[i]
			touched[key(s)] = true
			j := rng.Intn(len(out) + 1)
			out = append(out[:j], append([][2]string{s}, out[j:]...)...)
		case 4: // rewrite text in place
			if len(out) == 0 {
				continue
			}
			i := rng.Intn(len(out))
			touched[key(out[i])] = true
			out[i][1] = fmt.Sprintf("rewritten %d-%d", e, rng.Int63())
			touched[key(out[i])] = true
		}
	}
	untouched = map[string]bool{}
	for _, s := range sents {
		if !touched[key(s)] {
			untouched[key(s)] = true
		}
	}
	return out, untouched
}

// TestDiffMetamorphic drives Diff with random edit scripts and checks the
// structural invariants that the incremental build pipeline depends on:
//
//  1. Kept ∪ Added partitions the new document (every new index exactly
//     once), and Kept ∪ Removed partitions the old one.
//  2. Kept pairs carry equal keys, so splicing old per-sentence state at
//     kept positions reconstructs the new document exactly.
//  3. Identity is stable under unrelated edits: a (section, text) pair
//     whose sentences were never themselves edited or duplicated keeps
//     every one of its sentences, no matter what happened elsewhere in the
//     document.
//  4. Duplicates are told apart by their order: for each key, the n-th
//     copy in the new document keeps the n-th copy in the old one, for
//     every n below both documents' counts of that key, and no other copy
//     is kept.
func TestDiffMetamorphic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 100; round++ {
		n := 5 + rng.Intn(60)
		sents := make([][2]string, n)
		for i := range sents {
			sec := fmt.Sprintf("s%d", rng.Intn(5))
			if rng.Intn(10) == 0 && i > 0 {
				sents[i] = sents[rng.Intn(i)] // seed some duplicates
				continue
			}
			sents[i] = [2]string{sec, fmt.Sprintf("sentence %d of round %d", i, round)}
		}
		edited, untouched := editScript(rng, sents, 1+rng.Intn(12))

		oldKeys := keysOf(sents)
		newKeys := keysOf(edited)
		d := doc.Diff(oldKeys, newKeys)

		// invariant 1: exact partitions on both sides
		newSeen := make([]int, len(newKeys))
		for _, j := range d.Added {
			newSeen[j]++
		}
		oldSeen := make([]int, len(oldKeys))
		for _, i := range d.Removed {
			oldSeen[i]++
		}
		for _, k := range d.Kept {
			newSeen[k.New]++
			oldSeen[k.Old]++
			// invariant 2: kept means an equal key
			if oldKeys[k.Old] != newKeys[k.New] {
				t.Fatalf("round %d: kept pair %+v has keys %q vs %q", round, k, oldKeys[k.Old], newKeys[k.New])
			}
		}
		for j, c := range newSeen {
			if c != 1 {
				t.Fatalf("round %d: new index %d covered %d times (want 1)", round, j, c)
			}
		}
		for i, c := range oldSeen {
			if c != 1 {
				t.Fatalf("round %d: old index %d covered %d times (want 1)", round, i, c)
			}
		}

		// invariant 3: untouched (section,text) pairs keep all their sentences
		keptOld := make([]bool, len(oldKeys))
		for _, k := range d.Kept {
			keptOld[k.Old] = true
		}
		for i, s := range sents {
			if untouched[s[0]+"\x00"+s[1]] && !keptOld[i] {
				t.Fatalf("round %d: untouched sentence %d (%q/%q) lost its identity", round, i, s[0], s[1])
			}
		}

		// invariant 4: per key, kept pairs match the n-th occurrences in order
		occurrences := func(keys []doc.Key) map[doc.Key][]int {
			at := map[doc.Key][]int{}
			for i, k := range keys {
				at[k] = append(at[k], i)
			}
			return at
		}
		oldAt, newAt := occurrences(oldKeys), occurrences(newKeys)
		keptAt := map[doc.Key][]doc.Kept{}
		for _, k := range d.Kept {
			keptAt[newKeys[k.New]] = append(keptAt[newKeys[k.New]], k)
		}
		for key, news := range newAt {
			olds := oldAt[key]
			pairs := keptAt[key]
			if len(pairs) != min(len(olds), len(news)) {
				t.Fatalf("round %d: key %q kept %d copies, want min(%d, %d)", round, key, len(pairs), len(olds), len(news))
			}
			for n, p := range pairs {
				if p.Old != olds[n] || p.New != news[n] {
					t.Fatalf("round %d: key %q copy %d kept as %+v, want {%d %d}", round, key, n, p, olds[n], news[n])
				}
			}
		}

		// ratios stay in range and agree with the partition sizes
		if r := d.ChangeRatio(); r < 0 || r > 2 {
			t.Fatalf("round %d: change ratio %v out of range", round, r)
		}
		if got, want := d.ReuseRatio(), float64(len(d.Kept))/float64(len(newKeys)); len(newKeys) > 0 && got != want {
			t.Fatalf("round %d: reuse ratio %v, want %v", round, got, want)
		}
	}
}
