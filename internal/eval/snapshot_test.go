package eval_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/experiments"
)

// TestSnapshotBitExactAnswers proves the warm-start contract: an advisor
// round-tripped through a snapshot (Save + LoadAdvisor) must produce
// Float64bits-identical Stage-II answers to the freshly built advisor, over
// the paper's frozen CUDA query set. Scores are
// compared at the bit level, not with a tolerance: the snapshot stores the
// exact normalized term lists the fresh build indexed, so the rebuilt index
// is the same index.
func TestSnapshotBitExactAnswers(t *testing.T) {
	g := corpus.Generate(corpus.CUDA, experiments.Seed)
	fresh := core.New().BuildFromSentences(g.Doc, g.Sentences)

	var buf strings.Builder
	if err := fresh.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.LoadAdvisor(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}

	fr, lr := fresh.Rules(), loaded.Rules()
	if len(fr) != len(lr) {
		t.Fatalf("rules: fresh %d, loaded %d", len(fr), len(lr))
	}
	for i := range fr {
		if fr[i] != lr[i] {
			t.Fatalf("rule %d differs: fresh %+v, loaded %+v", i, fr[i], lr[i])
		}
	}

	for _, q := range corpus.CUDAQueries() {
		fa, la := retrieve(fresh, q.Text), retrieve(loaded, q.Text)
		if len(fa) != len(la) {
			t.Fatalf("%q: fresh %d answers, loaded %d", q.Text, len(fa), len(la))
		}
		for i := range fa {
			if fa[i].Sentence.Index != la[i].Sentence.Index {
				t.Errorf("%q answer %d: sentence %d vs %d",
					q.Text, i, fa[i].Sentence.Index, la[i].Sentence.Index)
			}
			fb, lb := math.Float64bits(fa[i].Score), math.Float64bits(la[i].Score)
			if fb != lb {
				t.Errorf("%q answer %d: score bits %016x vs %016x (%v vs %v)",
					q.Text, i, fb, lb, fa[i].Score, la[i].Score)
			}
		}
	}
}
