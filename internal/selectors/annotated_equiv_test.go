package selectors

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/depparse"
	"repro/internal/nlp"
)

// TestClassifyAnnotatedEquivalence is the golden pipeline-equivalence test:
// over every sentence of the three synthetic corpora, a sentence annotated
// from its raw text (nlp.Annotate, the Stage-I build path) and one wrapped
// around a pre-parsed tree (nlp.FromTree, the path egeria-parse and the
// benchmark replay take) must get the identical Stage-I decision, and each
// of the five selectors must agree individually between the two. Any drift
// here means the two entry points no longer select what the paper's Stage I
// selects.
func TestClassifyAnnotatedEquivalence(t *testing.T) {
	rec := Default()
	for _, reg := range []corpus.Register{corpus.CUDA, corpus.OpenCL, corpus.XeonPhi} {
		g := corpus.Generate(reg, 1)
		for i, s := range g.Texts() {
			fromText := nlp.Annotate(s)
			fromTree := nlp.FromTree(s, depparse.ParseText(s))

			viaText := rec.ClassifyAnnotated(fromText)
			viaTree := rec.ClassifyAnnotated(fromTree)
			if viaText != viaTree {
				t.Errorf("%v sentence %d: Annotate=%+v FromTree=%+v\n%q",
					reg, i, viaText, viaTree, s)
			}

			for k := 1; k <= 5; k++ {
				a := rec.SelectorAnnotated(k, fromText)
				b := rec.SelectorAnnotated(k, fromTree)
				if a != b {
					t.Errorf("%v sentence %d selector %d: Annotate=%v FromTree=%v\n%q",
						reg, i, k, a, b, s)
				}
			}
		}
	}
}

// TestExplainAnnotatedEquivalence checks the evidence path the same way:
// text-fed and tree-fed annotations must produce identical evidence lists.
func TestExplainAnnotatedEquivalence(t *testing.T) {
	rec := Default()
	g := corpus.Generate(corpus.CUDA, 1)
	for i, s := range g.Texts() {
		fromText := rec.ExplainAnnotated(nlp.Annotate(s))
		fromTree := rec.ExplainAnnotated(nlp.FromTree(s, depparse.ParseText(s)))
		if len(fromText) != len(fromTree) {
			t.Fatalf("sentence %d: evidence counts differ: %d / %d\n%q",
				i, len(fromText), len(fromTree), s)
		}
		for j := range fromText {
			if fromText[j] != fromTree[j] {
				t.Errorf("sentence %d evidence %d: %+v / %+v", i, j, fromText[j], fromTree[j])
			}
		}
	}
}
