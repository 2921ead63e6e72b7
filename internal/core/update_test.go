package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/corpus"
	"repro/internal/htmldoc"
	"repro/internal/obs"
	"repro/internal/textproc"
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
		case 7: // rewritten (a new identity)
			sents = append(sents, htmldoc.Sentence{
				Text: "Always coalesce global memory accesses for peak bandwidth.", Section: s.Section,
			})
		default:
			sents = append(sents, s)
		}
	}
	sents = append(sents, htmldoc.Sentence{
		Text: "Prefer shared memory over repeated global loads.", Section: sents[len(sents)-1].Section,
	})
	return d, sents
}

// assertEquivalent checks that an incrementally updated advisor is
// indistinguishable from a full build of the same sentences: identical
// rules and Float64bits-identical scores.
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
		ai, af := retrieve(inc, q.Text), retrieve(full, q.Text)
		if len(ai) != len(af) {
			t.Fatalf("query %q: %d vs %d answers", q.Text, len(ai), len(af))
		}
		for i := range af {
			if *ai[i].Sentence != *af[i].Sentence ||
				math.Float64bits(ai[i].Score) != math.Float64bits(af[i].Score) {
				t.Fatalf("query %q answer %d: %+v vs %+v", q.Text, i, ai[i], af[i])
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
	assertReusesAll(t, f, inc)
}

// assertReusesAll checks that a is an incremental base for every one of its
// sentences: an update by f from a over its own sentences reuses them all.
func assertReusesAll(t *testing.T, f *Framework, a *Advisor) {
	t.Helper()
	next, err := f.UpdateFromSentences(a, a.doc, a.sentences)
	if err != nil {
		t.Fatal(err)
	}
	if got := next.BuildStats().Reused; got != a.SentenceCount() {
		t.Fatalf("an update over its own sentences reused %d of %d", got, a.SentenceCount())
	}
}

// TestUpdateReannotatesOnlyAdded: an update runs the NLP pass over exactly
// its Added sentences, every Kept sentence carries prev's term list itself,
// not a copy, and every Added one the terms of its own text.
func TestUpdateReannotatesOnlyAdded(t *testing.T) {
	g := corpus.GenerateSized(corpus.CUDA, 150, 0.3, 31)
	f := New()
	prev := f.BuildFromSentences(g.Doc, g.Sentences)
	d, sents := editGuide(g)
	diffs := prev.Diff(d, sents)
	if len(diffs.Added) == 0 || len(diffs.Kept) == 0 {
		t.Fatalf("edit has %d added, %d kept sentences", len(diffs.Added), len(diffs.Kept))
	}

	// one tokenize observation per sentence annotated
	annotated := obs.Default().Histogram("nlp_tokenize_micros")
	before := annotated.Count()
	inc, err := f.UpdateFromSentences(prev, d, sents)
	if err != nil {
		t.Fatal(err)
	}
	if got := annotated.Count() - before; got != int64(len(diffs.Added)) {
		t.Fatalf("update annotated %d sentences, want the %d added", got, len(diffs.Added))
	}
	for _, kp := range diffs.Kept {
		if !sameSlice(inc.terms[kp.New], prev.terms[kp.Old]) {
			t.Fatalf("kept sentence %d -> %d does not carry prev's term list", kp.Old, kp.New)
		}
	}
	for _, j := range diffs.Added {
		if want := textproc.NormalizeTerms(sents[j].Text); !slices.Equal(inc.terms[j], want) {
			t.Fatalf("added sentence %d has terms %q, want %q", j, inc.terms[j], want)
		}
	}
}

// sameSlice reports whether a and b are the same slice: the same length,
// capacity and backing array.
func sameSlice(a, b []string) bool {
	if len(a) != len(b) || cap(a) != cap(b) {
		return false
	}
	return cap(a) == 0 || &a[:cap(a)][0] == &b[:cap(b)][0]
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
	assertReusesAll(t, f, prev)

	d, sents := editGuide(g)
	inc, err := f.UpdateFromSentences(prev, d, sents)
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, inc, f.BuildFromSentences(d, sents))
}

// TestUpdateFromNothing: an update from no predecessor is the cold build —
// nothing reused, the same rules and Float64bits-identical answers.
func TestUpdateFromNothing(t *testing.T) {
	f := New()
	g := corpus.GenerateSized(corpus.CUDA, 40, 0.3, 37)
	inc, err := f.UpdateFromSentences(nil, g.Doc, g.Sentences)
	if err != nil {
		t.Fatal(err)
	}
	if got := inc.BuildStats().Reused; got != 0 {
		t.Fatalf("an update from nothing reused %d sentences", got)
	}
	assertEquivalent(t, inc, f.BuildFromSentences(g.Doc, g.Sentences))
}

// BenchmarkUpdateVsCold times, on the full CUDA guide, an update from the
// advisor of the original guide against a cold build of the same edited
// sentences, at change ratios from a small edit to a full rewrite (each
// rewritten sentence is one removal plus one addition). The lifecycle
// updates the serving advisor whatever the ratio; these are the timings
// behind that choice.
func BenchmarkUpdateVsCold(b *testing.B) {
	g := corpus.Generate(corpus.CUDA, 42)
	f := New()
	prev := f.BuildFromSentences(g.Doc, g.Sentences)
	n := len(g.Sentences)
	for _, ratio := range []float64{0.01, 0.3, 0.6, 1.0, 2.0} {
		k := int(math.Round(ratio * float64(n) / 2))
		sents := slices.Clone(g.Sentences)
		for j := 0; j < k; j++ {
			i := j * n / k
			sents[i].Text = fmt.Sprintf("Coalesce global memory accesses for full bandwidth, rewrite %d.", i)
		}
		diffs := prev.Diff(g.Doc, sents)
		if got := diffs.ChangeRatio(); math.Abs(got-ratio) > 0.01 {
			b.Fatalf("edit for ratio %.2f has change ratio %.4f", ratio, got)
		}
		name := fmt.Sprintf("ratio=%.2f", ratio)
		b.Run(name+"/update", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := f.UpdateFromSentences(prev, g.Doc, sents); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/cold", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f.BuildFromSentences(g.Doc, sents)
			}
		})
	}
}

// TestUpdateSeesInPlaceEdits is the regression test for trusted sentence
// identity: on the full CUDA guide, three non-advising sentences are
// rewritten in place in the very slice the build was given (the guide's
// extraction, as a document source hands it over), and that slice is
// handed to the update. Identity derived from content sees the three
// rewrites: the update reuses the other 2,137 of 2,140 sentences, serves
// the 366 rules a cold build serves, and answers and saves exactly as the
// cold build does. An update that trusted the identities stamped on the
// caller's sentences reused all 2,140, kept the three old verdicts, served
// 363 rules and gave "pinned host memory transfers" 7 answers for 11.
func TestUpdateSeesInPlaceEdits(t *testing.T) {
	g := corpus.Generate(corpus.CUDA, 42)
	sents := g.Doc.Sentences()
	f := New()
	prev := f.BuildFromSentences(g.Doc, sents)
	rewrites := []string{
		"Use pinned host memory for host to device transfers to maximize bandwidth.",
		"Pinned host memory transfers should be used to achieve the highest bandwidth.",
		"Developers should prefer pinned host memory transfers for asynchronous copies.",
	}
	k := 0
	for i := range sents {
		if k < len(rewrites) && !prev.IsAdvising(i) {
			sents[i].Text = rewrites[k]
			k++
		}
	}

	inc, err := f.UpdateFromSentences(prev, g.Doc, sents)
	if err != nil {
		t.Fatal(err)
	}
	cold := f.BuildFromSentences(g.Doc, slices.Clone(sents))
	if got := inc.BuildStats().Reused; len(sents) != 2140 || got != 2137 {
		t.Fatalf("update reused %d of %d sentences, want 2,137 of 2,140", got, len(sents))
	}
	if got := len(inc.Rules()); got != 366 || len(cold.Rules()) != 366 {
		t.Fatalf("update serves %d rules, cold build %d, want 366", got, len(cold.Rules()))
	}
	assertEquivalent(t, inc, cold)
	const q = "pinned host memory transfers"
	answers := retrieve(inc, q)
	if len(answers) != 11 {
		t.Fatalf("%q: %d answers, want 11", q, len(answers))
	}
	sameAnswers(t, q, answers, retrieve(cold, q))
	if !bytes.Equal(saveBytes(t, inc), saveBytes(t, cold)) {
		t.Error("the update saves other bytes than a cold build")
	}
}

// TestUpdateInPlaceEditsProperty is the seeded property behind
// TestUpdateSeesInPlaceEdits: over 60 rounds on a small CUDA guide, each
// round edits, in place, the very slice the previous build was given —
// rewriting texts, inserting, deleting, moving a sentence to another
// section through its Section index, and duplicating — and updates from the
// previous round's advisor. After every update the rules equal a cold build
// of a copy, answers over the CUDA queries are Float64bits-equal, Save
// bytes are equal, and Reused is the sum over (section path, text) keys of
// min(old count, new count), counted here without doc.Diff.
func TestUpdateInPlaceEditsProperty(t *testing.T) {
	const rounds = 60
	g := corpus.GenerateSized(corpus.CUDA, 150, 0.3, 47)
	rng := rand.New(rand.NewSource(47))
	f := New()
	// spare capacity, so inserts shift sentences within one backing array
	sents := append(make([]htmldoc.Sentence, 0, len(g.Sentences)+4*rounds), g.Sentences...)
	backing := &sents[:cap(sents)][0]
	prev := f.BuildFromSentences(g.Doc, sents)
	texts := []string{
		"Use pinned host memory for transfers to maximize bandwidth (revision %d).",
		"Developers should coalesce global memory accesses in revision %d.",
		"Revision %d of this guide describes the memory hierarchy.",
		"The device in revision %d has several streaming multiprocessors.",
	}
	newText := func(round int) string {
		if rng.Intn(3) == 0 { // the text of another sentence: a duplicate key, or the same text in another section
			return sents[rng.Intn(len(sents))].Text
		}
		return fmt.Sprintf(texts[rng.Intn(len(texts))], round)
	}
	for round := 0; round < rounds; round++ {
		before := slices.Clone(sents)
		for range 1 + rng.Intn(4) {
			i := rng.Intn(len(sents))
			switch rng.Intn(5) {
			case 0: // rewrite
				sents[i].Text = newText(round)
			case 1: // insert
				s := htmldoc.Sentence{Text: newText(round), Section: rng.Intn(len(g.Doc.Sections))}
				sents = slices.Insert(sents, rng.Intn(len(sents)+1), s)
			case 2: // delete
				if len(sents) > 1 {
					sents = slices.Delete(sents, i, i+1)
				}
			case 3: // move to another section
				sents[i].Section = (sents[i].Section + 1 + rng.Intn(len(g.Doc.Sections)-1)) % len(g.Doc.Sections)
			case 4: // duplicate
				sents = slices.Insert(sents, rng.Intn(len(sents)+1), sents[i])
			}
		}
		if &sents[:cap(sents)][0] != backing {
			t.Fatalf("round %d: the edits reallocated the sentence slice", round)
		}

		inc, err := f.UpdateFromSentences(prev, g.Doc, sents)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		cold := f.BuildFromSentences(g.Doc, slices.Clone(sents))
		assertEquivalent(t, inc, cold)
		if !bytes.Equal(saveBytes(t, inc), saveBytes(t, cold)) {
			t.Fatalf("round %d: the update saves other bytes than a cold build", round)
		}
		if got, want := inc.BuildStats().Reused, reusable(g.Doc, before, sents); got != want {
			t.Fatalf("round %d: Reused = %d, want %d", round, got, want)
		}
		prev = inc
	}
}

// reusable counts the sentences an update from old to new can keep: for
// each (section path, text) key, the smaller of its two counts.
func reusable(d *htmldoc.Document, old, new []htmldoc.Sentence) int {
	count := func(sents []htmldoc.Sentence) map[[2]string]int {
		m := map[[2]string]int{}
		for _, s := range sents {
			m[[2]string{d.Sections[s.Section].Path(), s.Text}]++
		}
		return m
	}
	n := 0
	newCount := count(new)
	for k, c := range count(old) {
		n += min(c, newCount[k])
	}
	return n
}
