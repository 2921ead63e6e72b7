package eval_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/htmldoc"
	"repro/internal/nlp"
	"repro/internal/vsm"
)

// retrieve answers raw query text with the named backend, failing the test
// on an error.
func retrieve(t *testing.T, a *core.Advisor, q, backend string) []core.Answer {
	t.Helper()
	out, err := a.Retrieve(context.Background(), nlp.QueryTerms(q), a.QueryOpts(backend))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// editStep is one mutation of a document's sentence list — the edit shapes
// technical documentation actually sees between releases.
type editStep struct {
	name  string
	apply func(sents []htmldoc.Sentence) []htmldoc.Sentence
}

func unstamped(sents []htmldoc.Sentence) []htmldoc.Sentence {
	out := make([]htmldoc.Sentence, len(sents))
	for i, s := range sents {
		out[i] = htmldoc.Sentence{Text: s.Text, Section: s.Section}
	}
	return out
}

func editChain() []editStep {
	return []editStep{
		{"modify", func(s []htmldoc.Sentence) []htmldoc.Sentence {
			out := unstamped(s)
			out[9].Text = "Coalesce global memory accesses to use the full transaction width."
			return out
		}},
		{"insert", func(s []htmldoc.Sentence) []htmldoc.Sentence {
			out := unstamped(s)
			ins := htmldoc.Sentence{
				Text:    "Prefer shared memory staging over repeated global memory reads.",
				Section: out[len(out)/2].Section,
			}
			mid := len(out) / 2
			return append(out[:mid], append([]htmldoc.Sentence{ins}, out[mid:]...)...)
		}},
		{"delete", func(s []htmldoc.Sentence) []htmldoc.Sentence {
			out := unstamped(s)
			return append(out[:4], out[5:]...)
		}},
		{"duplicate", func(s []htmldoc.Sentence) []htmldoc.Sentence {
			out := unstamped(s)
			return append(out, out[7])
		}},
		{"move", func(s []htmldoc.Sentence) []htmldoc.Sentence {
			out := unstamped(s)
			moved := out[2]
			out = append(out[:2], out[3:]...)
			return append(out, moved)
		}},
	}
}

// TestIncrementalEqualsFullBuild is the end-to-end incremental≡full oracle:
// starting from a built guide, apply a chain of edits (modify, insert,
// delete, duplicate, move); after each step, an incremental update from the
// previous advisor must match a from-scratch build of the same sentences —
// identical Stage-I rules and Float64bits-identical Stage-II answers for
// both scoring backends over the frozen CUDA query set. The chain threads
// the *incremental* result forward as the next step's base, so divergence
// cannot hide by being re-derived from a clean build.
func TestIncrementalEqualsFullBuild(t *testing.T) {
	g := corpus.GenerateSized(corpus.CUDA, 150, 0.3, 61)
	fw := core.New()
	prev := fw.BuildFromSentences(g.Doc, g.Sentences)
	sents := g.Sentences

	for _, step := range editChain() {
		sents = step.apply(sents)
		inc, err := fw.UpdateFromSentences(prev, g.Doc, sents)
		if err != nil {
			t.Fatalf("step %s: %v", step.name, err)
		}
		full := fw.BuildFromSentences(g.Doc, sents)

		ir, fr := inc.Rules(), full.Rules()
		if len(ir) != len(fr) {
			t.Fatalf("step %s: rules %d incremental vs %d full", step.name, len(ir), len(fr))
		}
		for i := range fr {
			if ir[i] != fr[i] {
				t.Fatalf("step %s rule %d: %+v vs %+v", step.name, i, ir[i], fr[i])
			}
		}
		for _, backend := range vsm.Backends() {
			for _, q := range corpus.CUDAQueries() {
				ia, fa := retrieve(t, inc, q.Text, backend), retrieve(t, full, q.Text, backend)
				if len(ia) != len(fa) {
					t.Fatalf("step %s %s %q: %d vs %d answers", step.name, backend, q.Text, len(ia), len(fa))
				}
				for i := range fa {
					if ia[i].Sentence != fa[i].Sentence ||
						math.Float64bits(ia[i].Score) != math.Float64bits(fa[i].Score) {
						t.Fatalf("step %s %s %q answer %d: (%d, %x) vs (%d, %x)",
							step.name, backend, q.Text, i,
							ia[i].Sentence.Index, ia[i].Score, fa[i].Sentence.Index, fa[i].Score)
					}
				}
			}
		}
		if inc.BuildStats().Reused == 0 {
			t.Fatalf("step %s: incremental build reused nothing", step.name)
		}
		prev = inc // chain the incremental result forward
	}
}

// TestIncrementalChainDrift hammers the chaining property: many consecutive
// single-sentence modifications, each incremental on the last incremental
// result, must stay bit-identical to a from-scratch build at every step —
// no drift accumulates through repeated index rebuilds.
func TestIncrementalChainDrift(t *testing.T) {
	g := corpus.GenerateSized(corpus.CUDA, 100, 0.3, 63)
	fw := core.New()
	prev := fw.BuildFromSentences(g.Doc, g.Sentences)
	sents := g.Sentences

	for step := 0; step < 8; step++ {
		next := unstamped(sents)
		next[step*7%len(next)].Text = fmt.Sprintf(
			"Revision %d: overlap data transfers with kernel execution using streams.", step)
		inc, err := fw.UpdateFromSentences(prev, g.Doc, next)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		full := fw.BuildFromSentences(g.Doc, next)
		for _, q := range corpus.CUDAQueries() {
			ia := inc.Query(q.Text)
			fa := full.Query(q.Text)
			if len(ia) != len(fa) {
				t.Fatalf("step %d %q: %d vs %d answers", step, q.Text, len(ia), len(fa))
			}
			for i := range fa {
				if ia[i].Sentence != fa[i].Sentence ||
					math.Float64bits(ia[i].Score) != math.Float64bits(fa[i].Score) {
					t.Fatalf("step %d %q answer %d differs", step, q.Text, i)
				}
			}
		}
		prev, sents = inc, next
	}
}
