package core

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"repro/internal/corpus"
	"repro/internal/htmldoc"
	"repro/internal/vsm"
)

// editGuide derives a new document version from a guide: one sentence
// rewritten, one inserted, one removed — a typical small documentation edit.
func editGuide(g *corpus.Guide) (*htmldoc.Document, []htmldoc.Sentence) {
	d := &htmldoc.Document{Title: g.Doc.Title, Sections: g.Doc.Sections}
	var sents []htmldoc.Sentence
	for i, s := range g.Sentences {
		switch i {
		case 3: // removed
			continue
		case 7: // rewritten (fresh identity)
			sents = append(sents, htmldoc.Sentence{
				Text: "Always coalesce global memory accesses for peak bandwidth.", Section: s.Section,
			})
		default:
			sents = append(sents, htmldoc.Sentence{Text: s.Text, Section: s.Section})
		}
	}
	sents = append(sents, htmldoc.Sentence{
		Text: "Prefer shared memory over repeated global loads.", Section: sents[len(sents)-1].Section,
	})
	return d, htmldoc.StampIDs(d, sents)
}

// assertEquivalent checks that an incrementally updated advisor is
// indistinguishable from a full build of the same sentences: identical
// rules and Float64bits-identical scores under both backends.
func assertEquivalent(t *testing.T, inc, full *Advisor) {
	t.Helper()
	ri, rf := inc.Rules(), full.Rules()
	if len(ri) != len(rf) {
		t.Fatalf("rules: %d incremental vs %d full", len(ri), len(rf))
	}
	for i := range rf {
		if ri[i] != rf[i] {
			t.Fatalf("rule %d: %+v vs %+v", i, ri[i], rf[i])
		}
	}
	for _, q := range corpus.CUDAQueries() {
		for _, backend := range vsm.Backends() {
			ai, af := retrieve(t, inc, q.Text, backend), retrieve(t, full, q.Text, backend)
			if len(ai) != len(af) {
				t.Fatalf("query %q/%s: %d vs %d answers", q.Text, backend, len(ai), len(af))
			}
			for i := range af {
				if ai[i].Sentence != af[i].Sentence ||
					math.Float64bits(ai[i].Score) != math.Float64bits(af[i].Score) {
					t.Fatalf("query %q/%s answer %d: %+v vs %+v", q.Text, backend, i, ai[i], af[i])
				}
			}
		}
	}
}

func TestUpdateEquivalentToFullBuild(t *testing.T) {
	g := corpus.GenerateSized(corpus.CUDA, 150, 0.3, 31)
	f := New()
	prev := f.BuildFromSentences(g.Doc, g.Sentences)
	d, sents := editGuide(g)

	inc, err := f.UpdateFromSentences(prev, d, sents)
	if err != nil {
		t.Fatal(err)
	}
	full := f.BuildFromSentences(d, sents)
	assertEquivalent(t, inc, full)

	stats := inc.BuildStats()
	if want := len(sents) - 2; stats.Reused != want { // rewritten + appended are new
		t.Fatalf("Reused = %d, want %d", stats.Reused, want)
	}
	if !inc.HasIdentity() {
		t.Fatal("incrementally built advisor lost identity state")
	}
}

func TestUpdateNoopEdit(t *testing.T) {
	g := corpus.GenerateSized(corpus.CUDA, 80, 0.3, 33)
	f := New()
	prev := f.BuildFromSentences(g.Doc, g.Sentences)
	inc, err := f.UpdateFromSentences(prev, g.Doc, g.Sentences)
	if err != nil {
		t.Fatal(err)
	}
	if got := inc.BuildStats().Reused; got != len(g.Sentences) {
		t.Fatalf("no-op edit reused %d of %d sentences", got, len(g.Sentences))
	}
	assertEquivalent(t, inc, prev)
}

func TestUpdateFromLoadedSnapshot(t *testing.T) {
	g := corpus.GenerateSized(corpus.CUDA, 120, 0.3, 35)
	f := New()
	orig := f.BuildFromSentences(g.Doc, g.Sentences)
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	prev, err := LoadAdvisor(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !prev.HasIdentity() {
		t.Fatal("warm-started advisor should retain identity state (terms snapshot)")
	}

	d, sents := editGuide(g)
	inc, err := f.UpdateFromSentences(prev, d, sents)
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, inc, f.BuildFromSentences(d, sents))
}

func TestUpdateCannotUpdate(t *testing.T) {
	f := New()
	g := corpus.GenerateSized(corpus.CUDA, 40, 0.3, 37)
	if _, err := f.UpdateFromSentences(nil, g.Doc, g.Sentences); !errors.Is(err, ErrCannotUpdate) {
		t.Fatalf("nil prev: err = %v, want ErrCannotUpdate", err)
	}
	// an advisor stripped of its annotations (pre-identity snapshot without
	// terms) must refuse the incremental path
	prev := f.BuildFromSentences(g.Doc, g.Sentences)
	prev.anns = nil
	if _, err := f.UpdateFromSentences(prev, g.Doc, g.Sentences); !errors.Is(err, ErrCannotUpdate) {
		t.Fatalf("no annotations: err = %v, want ErrCannotUpdate", err)
	}
}
