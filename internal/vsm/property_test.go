package vsm

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/textproc"
)

// Metamorphic properties of Stage-II retrieval, each checked over 100
// randomized rounds with fixed seeds. These pin behaviours the rest of the
// system depends on: score determinism under document reordering (cache
// correctness), robustness to irrelevant corpus growth, and the threshold
// semantics of the paper's 0.15 recommendation cut (§3.2).

const propertyRounds = 100

// propVocab is a pool of already-normalized terms (no stopwords, stable
// under stemming is not required since BuildFromTerms skips normalization).
var propVocab = []string{
	"gpu", "kernel", "memori", "coalesc", "warp", "occup", "bandwidth",
	"latenc", "thread", "block", "cach", "regist", "share", "global",
	"branch", "diverg", "stride", "prefetch", "vector", "align",
}

func randPropTerms(rng *rand.Rand, minLen, maxLen int, pool []string) []string {
	n := minLen + rng.Intn(maxLen-minLen+1)
	out := make([]string, n)
	for i := range out {
		out[i] = pool[rng.Intn(len(pool))]
	}
	return out
}

// TestPropertyPermutationInvariance: permuting the document order yields
// bit-identical cosine scores for every document. This is what makes cached
// answers stable across index rebuilds that only reorder sentences — term
// ids are assigned in sorted vocabulary order, so float summation order is
// a function of the document set alone.
func TestPropertyPermutationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < propertyRounds; round++ {
		nDocs := 2 + rng.Intn(40)
		docs := make([][]string, nDocs)
		for i := range docs {
			docs[i] = randPropTerms(rng, 1, 12, propVocab)
		}
		query := randPropTerms(rng, 1, 6, propVocab)

		scores := engineScores(BuildFromTerms(docs, nil), query)

		perm := rng.Perm(nDocs)
		permuted := make([][]string, nDocs)
		for newPos, oldPos := range perm {
			permuted[newPos] = docs[oldPos]
		}
		permScores := engineScores(BuildFromTerms(permuted, nil), query)

		for newPos, oldPos := range perm {
			if math.Float64bits(permScores[newPos]) != math.Float64bits(scores[oldPos]) {
				t.Fatalf("round %d: doc %d scored %v originally, %v after permutation (not bit-identical)",
					round, oldPos, scores[oldPos], permScores[newPos])
			}
		}
	}
}

// TestPropertyDuplicateNonMatchingDoc: duplicating a document that shares no
// term with the query (a) gives the copy similarity exactly 0 — it can never
// enter the answer set — and (b) leaves the identity of the top answer
// unchanged whenever the original top-1/top-2 margin exceeds the IDF
// perturbation the extra document introduces (~log((n+1)/n)).
func TestPropertyDuplicateNonMatchingDoc(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	effective := 0
	for round := 0; round < propertyRounds; round++ {
		// split the vocabulary: query terms come from the front half, the
		// non-matching document only from the back half, guaranteeing
		// disjointness
		qPool := propVocab[:len(propVocab)/2]
		dPool := propVocab[len(propVocab)/2:]

		nDocs := 3 + rng.Intn(30)
		docs := make([][]string, nDocs)
		docs[0] = randPropTerms(rng, 2, 8, dPool) // the non-matching doc
		for i := 1; i < nDocs; i++ {
			docs[i] = randPropTerms(rng, 1, 12, propVocab)
		}
		query := randPropTerms(rng, 1, 6, qPool)

		scores := engineScores(BuildFromTerms(docs, nil), query)
		top, second := -1, -1
		for i, s := range scores {
			switch {
			case top < 0 || s > scores[top]:
				top, second = i, top
			case second < 0 || s > scores[second]:
				second = i
			}
		}
		if top < 0 || scores[top] == 0 {
			continue // query matched nothing; no top answer to preserve
		}

		dup := append(append([][]string{}, docs...), docs[0])
		dupScores := engineScores(BuildFromTerms(dup, nil), query)
		if got := dupScores[nDocs]; got != 0 {
			t.Fatalf("round %d: duplicated non-matching doc scored %v, want exactly 0", round, got)
		}

		// perturbation bound: duplicating shifts every IDF by at most
		// log((n+1)/n) plus the df change of the duplicated doc's own terms;
		// only margins comfortably above that are expected to be stable
		margin := scores[top]
		if second >= 0 {
			margin = scores[top] - scores[second]
		}
		if margin < 0.05 {
			continue
		}
		effective++
		dupTop := 0
		for i := 0; i < nDocs; i++ { // the copy is excluded: it scored 0
			if dupScores[i] > dupScores[dupTop] {
				dupTop = i
			}
		}
		if dupTop != top {
			t.Fatalf("round %d: top answer moved from doc %d (%.4f) to doc %d (%.4f) after duplicating a non-matching doc",
				round, top, scores[top], dupTop, dupScores[dupTop])
		}
	}
	if effective < propertyRounds/4 {
		t.Fatalf("only %d/%d rounds had a decisive top answer; generator too weak", effective, propertyRounds)
	}
}

// TestPropertyThresholdMonotone: Query at θ returns exactly the documents
// with score ≥ θ, sorted by descending score; raising θ can only shrink the
// answer set (monotone filtering); and the postings accumulator agrees with
// the dense oracle bit-for-bit. Checked at the paper's 0.15 threshold and at
// random positive thresholds.
func TestPropertyThresholdMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < propertyRounds; round++ {
		nDocs := 2 + rng.Intn(40)
		sentences := make([]string, nDocs)
		for i := range sentences {
			sentences[i] = strings.Join(randPropTerms(rng, 1, 12, propVocab), " ")
		}
		q := textproc.NormalizeTerms(strings.Join(randPropTerms(rng, 1, 6, propVocab), " "))
		ix := Build(sentences)
		scores := denseScores(ix, q)

		thresholds := []float64{DefaultThreshold, 0.01 + 0.5*rng.Float64()}
		var prevSet map[int]bool
		// iterate thresholds in ascending order so the subset check applies
		if thresholds[1] < thresholds[0] {
			thresholds[0], thresholds[1] = thresholds[1], thresholds[0]
		}
		for _, th := range thresholds {
			got := run(ix, q, th)
			gotSet := map[int]bool{}
			for i, m := range got {
				gotSet[m.Index] = true
				if math.Float64bits(m.Score) != math.Float64bits(scores[m.Index]) {
					t.Fatalf("round %d θ=%v: match %d score %v != dense score %v",
						round, th, m.Index, m.Score, scores[m.Index])
				}
				if m.Score < th {
					t.Fatalf("round %d θ=%v: returned score %v below threshold", round, th, m.Score)
				}
				if i > 0 && got[i-1].Score < m.Score {
					t.Fatalf("round %d θ=%v: results not sorted by descending score", round, th)
				}
			}
			for i, s := range scores {
				if s >= th && !gotSet[i] {
					t.Fatalf("round %d θ=%v: doc %d (score %v) missing from results", round, th, i, s)
				}
			}
			if !matchesEqual(got, denseMatches(ix, q, th)) {
				t.Fatalf("round %d θ=%v: inverted-index and dense results differ", round, th)
			}
			// monotone: the higher-threshold set is a subset of the lower one
			if prevSet != nil {
				for idx := range gotSet {
					if !prevSet[idx] {
						t.Fatalf("round %d: doc %d appears at θ=%v but not at the lower threshold", round, idx, th)
					}
				}
			}
			prevSet = gotSet
		}
	}
}
