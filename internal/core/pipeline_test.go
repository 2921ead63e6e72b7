package core

import (
	"context"
	"testing"

	"repro/internal/corpus"
	"repro/internal/nlp"
	"repro/internal/vsm"
)

// TestBuildPipelineEquivalence verifies the staged annotate->classify->index
// build end to end against the unshared reference path: per-sentence
// ClassifyAnnotated decisions must match the built advisor's rule set
// exactly, and the advisor's index, which serves the advising sentences
// only, must score queries bit-identically to a vsm.Build over all the raw
// texts filtered to the advising sentences.
func TestBuildPipelineEquivalence(t *testing.T) {
	for _, reg := range []corpus.Register{corpus.CUDA, corpus.OpenCL, corpus.XeonPhi} {
		g := corpus.Generate(reg, 1)
		fw := New()
		adv := fw.BuildFromSentences(g.Doc, g.Sentences)

		// Stage-I decisions: rule-by-rule against the string path
		rec := fw.Recognizer()
		wantAdv := 0
		for i, s := range g.Sentences {
			res := rec.ClassifyAnnotated(nlp.Annotate(s.Text))
			if res.Advising {
				wantAdv++
			}
			if adv.IsAdvising(i) != res.Advising {
				t.Errorf("%v sentence %d: advisor says %v, ClassifyAnnotated says %v\n%q",
					reg, i, adv.IsAdvising(i), res.Advising, s.Text)
			}
		}
		if got := len(adv.Rules()); got != wantAdv {
			t.Errorf("%v: %d rules, reference path selects %d", reg, got, wantAdv)
		}
		for _, r := range adv.Rules() {
			if res := rec.ClassifyAnnotated(nlp.Annotate(r.Text)); r.Selector != res.Selector {
				t.Errorf("%v rule %d: selector %v, reference %v", reg, r.Index, r.Selector, res.Selector)
			}
		}

		// Stage-II index: bit-exact against vsm.Build on the raw texts,
		// whose statistics cover the same whole guide
		ref := vsm.Build(g.Texts())
		for _, q := range []string{
			"reduce instruction and memory latency",
			"avoid shared memory bank conflicts",
			"overlap transfers with execution",
		} {
			// a threshold below zero scores every served document
			matches := ref.Query(context.Background(), nlp.QueryTerms(q), -1)
			var want []vsm.Match
			for _, m := range matches {
				if adv.IsAdvising(m.Index) {
					want = append(want, m)
				}
			}
			if len(want) != len(adv.Rules()) {
				t.Fatalf("%v query %q: %d advising sentences scored, want all %d", reg, q, len(want), len(adv.Rules()))
			}
			got := adv.index.Query(context.Background(), nlp.QueryTerms(q), -1)
			if len(got) != len(want) {
				t.Fatalf("%v query %q: %d vs %d scored documents", reg, q, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v query %q rank %d: %+v vs %+v (must be bit-identical)",
						reg, q, i, got[i], want[i])
				}
			}
		}
	}
}

// TestBuildStatsStages checks that the per-stage timings are populated and
// consistent (StageI is the sum of its two sub-stages).
func TestBuildStatsStages(t *testing.T) {
	g := corpus.GenerateSized(corpus.CUDA, 120, 0.25, 3)
	st := New().BuildFromSentences(g.Doc, g.Sentences).BuildStats()
	if st.Annotate <= 0 {
		t.Errorf("Annotate stage not timed: %v", st.Annotate)
	}
	if st.Classify <= 0 {
		t.Errorf("Classify stage not timed: %v", st.Classify)
	}
	if st.Indexing <= 0 {
		t.Errorf("Indexing stage not timed: %v", st.Indexing)
	}
	if st.StageI != st.Annotate+st.Classify {
		t.Errorf("StageI %v != Annotate %v + Classify %v", st.StageI, st.Annotate, st.Classify)
	}
}

// TestQueryTermsEquivalence verifies the terms-fed query path answers
// exactly like the string path.
func TestQueryTermsEquivalence(t *testing.T) {
	g := corpus.GenerateSized(corpus.CUDA, 150, 0.3, 5)
	adv := New().BuildFromSentences(g.Doc, g.Sentences)
	for _, q := range []string{
		"minimize divergent warps caused by control flow",
		"coalesce global memory accesses",
	} {
		viaString := adv.Query(q)
		viaTerms := retrieve(adv, q)
		if len(viaString) != len(viaTerms) {
			t.Fatalf("query %q: %d vs %d answers", q, len(viaString), len(viaTerms))
		}
		for i := range viaString {
			if viaString[i] != viaTerms[i] {
				t.Fatalf("query %q answer %d: %+v vs %+v", q, i, viaString[i], viaTerms[i])
			}
		}
	}
}

// TestContextOfUnknownSection pins the fix for advisors built from bare
// sentences: with no section structure every rule has Section == "", and
// ContextOf must return nothing rather than the entire rule list.
func TestContextOfUnknownSection(t *testing.T) {
	g := corpus.GenerateSized(corpus.CUDA, 80, 0.4, 21)
	adv := New().BuildFromSentences(nil, g.Sentences) // bare: no document
	if len(adv.Rules()) < 2 {
		t.Skip("corpus produced fewer than 2 rules")
	}
	ans := Answer{Sentence: &adv.Rules()[0], Score: 1}
	if ans.Sentence.Section != "" {
		t.Fatalf("bare-sentence rule unexpectedly has section %q", ans.Sentence.Section)
	}
	if ctx := adv.ContextOf(ans); len(ctx) != 0 {
		t.Fatalf("ContextOf with unknown section returned %d sentences, want 0", len(ctx))
	}

	// with a real document, same-section context still works
	advDoc := New().BuildFromSentences(g.Doc, g.Sentences)
	for _, r := range advDoc.Rules() {
		if r.Section == "" {
			continue
		}
		got := advDoc.ContextOf(Answer{Sentence: &r})
		for _, c := range got {
			if c.Section != r.Section {
				t.Fatalf("context sentence from section %q, want %q", c.Section, r.Section)
			}
			if c.Index == r.Index {
				t.Fatalf("context includes the answer itself")
			}
		}
	}
}
