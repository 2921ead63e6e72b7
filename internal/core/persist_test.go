package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/htmldoc"
	"repro/internal/textproc"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	g := corpus.GenerateSized(corpus.CUDA, 200, 0.25, 21)
	orig := New().BuildFromSentences(g.Doc, g.Sentences)

	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadAdvisor(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Stage-I output identical
	or, lr := orig.Rules(), loaded.Rules()
	if len(or) != len(lr) {
		t.Fatalf("rules: %d vs %d", len(or), len(lr))
	}
	for i := range or {
		if or[i] != lr[i] {
			t.Fatalf("rule %d differs: %+v vs %+v", i, or[i], lr[i])
		}
	}
	if orig.SentenceCount() != loaded.SentenceCount() {
		t.Error("sentence count differs")
	}
	if orig.CompressionRatio() != loaded.CompressionRatio() {
		t.Error("ratio differs")
	}

	// Stage-II answers identical (same sentences -> same index)
	for _, q := range []string{
		"how to avoid shared memory bank conflicts",
		"reduce instruction and memory latency",
		"zyzzyva nothing matches",
	} {
		oa := orig.Query(q)
		la := loaded.Query(q)
		if len(oa) != len(la) {
			t.Fatalf("query %q: %d vs %d answers", q, len(oa), len(la))
		}
		for i := range oa {
			if oa[i].Sentence.Index != la[i].Sentence.Index || !almostEq(oa[i].Score, la[i].Score) {
				t.Errorf("query %q answer %d differs", q, i)
			}
		}
	}

	// IsAdvising preserved
	for i := 0; i < orig.SentenceCount(); i++ {
		if orig.IsAdvising(i) != loaded.IsAdvising(i) {
			t.Fatalf("IsAdvising(%d) differs", i)
		}
	}
}

// TestAdvisorTermsAndSaveBytes: every advisor — cold-built, loaded,
// updated, and updated from a loaded one — holds textproc.NormalizeTerms of
// each of its sentences, and Save bytes survive both round trips: build →
// save → load → save, and build → update → save against a cold build of
// the edited guide.
func TestAdvisorTermsAndSaveBytes(t *testing.T) {
	g := corpus.GenerateSized(corpus.CUDA, 150, 0.3, 45)
	f := New()
	cold := f.BuildFromSentences(g.Doc, g.Sentences)
	saved := saveBytes(t, cold)
	loaded, err := LoadAdvisor(bytes.NewReader(saved))
	if err != nil {
		t.Fatal(err)
	}
	d, sents := editGuide(g)
	updated, err := f.UpdateFromSentences(cold, d, sents)
	if err != nil {
		t.Fatal(err)
	}
	fromLoaded, err := f.UpdateFromSentences(loaded, d, sents)
	if err != nil {
		t.Fatal(err)
	}
	for name, a := range map[string]*Advisor{"cold": cold, "loaded": loaded, "updated": updated, "updated from loaded": fromLoaded} {
		if len(a.terms) != len(a.sentences) {
			t.Fatalf("%s advisor: %d term lists for %d sentences", name, len(a.terms), len(a.sentences))
		}
		for i, s := range a.sentences {
			if want := textproc.NormalizeTerms(s.Text); !slices.Equal(a.terms[i], want) {
				t.Fatalf("%s advisor sentence %d: terms %q, want %q", name, i, a.terms[i], want)
			}
		}
	}
	if !bytes.Equal(saveBytes(t, loaded), saved) {
		t.Error("build → save → load → save changed the bytes")
	}
	want := saveBytes(t, f.BuildFromSentences(d, sents))
	for name, a := range map[string]*Advisor{"updated": updated, "updated from loaded": fromLoaded} {
		if !bytes.Equal(saveBytes(t, a), want) {
			t.Errorf("%s advisor saves other bytes than a cold build of the edited guide", name)
		}
	}
}

func saveBytes(t *testing.T, a *Advisor) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func almostEq(a, b float64) bool {
	d := a - b
	return d < 1e-12 && d > -1e-12
}

func TestSaveLoadPreservesSections(t *testing.T) {
	a := New().BuildFromHTML(miniGuide)
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadAdvisor(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range loaded.Rules() {
		if r.Section == "" {
			t.Errorf("loaded rule %d lost its section", i)
		}
	}
}

func TestLoadAdvisorErrors(t *testing.T) {
	if _, err := LoadAdvisor(strings.NewReader("garbage")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := LoadAdvisor(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream accepted")
	}
}

// TestLoadRefusesRulesOutOfStep: a snapshot whose rules are not strictly
// ascending by sentence — reversed, or with one rule repeated — or whose
// rule carries another text than its sentence is refused. Unchecked, the
// reversed rules answered every query with empty sentences and the
// repeated rule loaded one rule too many.
func TestLoadRefusesRulesOutOfStep(t *testing.T) {
	g := corpus.GenerateSized(corpus.CUDA, 150, 0.3, 1)
	var buf bytes.Buffer
	if err := New().BuildFromSentences(g.Doc, g.Sentences).Save(&buf); err != nil {
		t.Fatal(err)
	}
	var snap advisorSnapshot
	if err := gob.NewDecoder(&buf).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	rules := snap.Advising
	reversed := slices.Clone(rules)
	slices.Reverse(reversed)
	tampered := slices.Clone(rules)
	tampered[1].Text = "tampered"
	for name, c := range map[string]struct {
		rules []AdvisingSentence
		want  string
	}{
		"reversed":   {reversed, "strictly ascending"},
		"duplicated": {slices.Insert(slices.Clone(rules), 1, rules[0]), "strictly ascending"},
		"tampered":   {tampered, "does not carry the text"},
	} {
		snap.Advising = c.rules
		buf.Reset()
		if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
			t.Fatal(err)
		}
		if a, err := LoadAdvisor(&buf); err == nil || !strings.Contains(err.Error(), c.want) {
			n := 0
			if a != nil {
				n = len(a.Rules())
			}
			t.Errorf("%s rules: loaded %d rules for %d, err %v, want %q", name, n, len(rules), err, c.want)
		}
	}
}

var persistQueries = []string{
	"how to avoid shared memory bank conflicts",
	"reduce instruction and memory latency",
	"minimize divergent warps",
	"zyzzyva nothing matches",
}

// partitionedSnapshot mirrors the version-2 wire shape written while the
// index had partitions: advisorSnapshot plus the partition count.
type partitionedSnapshot struct {
	Version   int
	Threshold float64
	Title     string
	Sections  []htmldoc.Section
	Sentences []htmldoc.Sentence
	Advising  []AdvisingSentence
	Terms     [][]string
	Shards    int
}

// TestPartitionedSnapshotsLoad: a version-2 stream carrying a partition
// count — a sane one, one far above any count ever allowed, and a negative
// one — loads (gob skips the field), is an incremental base for every
// sentence, and answers Float64bits-identically to a cold build.
func TestPartitionedSnapshotsLoad(t *testing.T) {
	g := corpus.GenerateSized(corpus.CUDA, 150, 0.3, 43)
	cold := New().BuildFromSentences(g.Doc, g.Sentences)
	for _, shards := range []int{3, 1 << 16, -1} {
		snap := partitionedSnapshot{
			Version:   2,
			Threshold: cold.threshold,
			Title:     g.Doc.Title,
			Sections:  g.Doc.Sections,
			Sentences: cold.sentences,
			Advising:  cold.Rules(),
			Terms:     cold.terms,
			Shards:    shards,
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadAdvisor(&buf)
		if err != nil {
			t.Fatalf("snapshot with %d shards rejected: %v", shards, err)
		}
		assertReusesAll(t, New(), loaded)
		for _, q := range persistQueries {
			sameAnswers(t, fmt.Sprintf("shards %d %q", shards, q), retrieve(loaded, q), retrieve(cold, q))
		}
	}
}

// legacySentence / legacySnapshot mirror the wire shapes written before
// sentences carried a stored identity (no Sentence.ID field), which is again
// the shape Save writes. gob matches struct fields by name, so encoding
// them reproduces exactly the streams those builds wrote.
type legacySentence struct {
	Text    string
	Section int
}

type legacySnapshot struct {
	Version   int
	Threshold float64
	Title     string
	Sections  []htmldoc.Section
	Sentences []legacySentence
	Advising  []AdvisingSentence
	Terms     [][]string
}

// TestLoadLegacySnapshot: streams without a stored sentence identity, with
// or without per-sentence Terms. As written (version 1) both are refused.
// At the current version the stream with terms is exactly what Save writes,
// since identity is derived from the sections and sentences, so it loads
// and equals the cold build: the same Save bytes and answers, and an update
// over its own sentences reuses them all. The stream without terms is
// refused at either version.
func TestLoadLegacySnapshot(t *testing.T) {
	g := corpus.GenerateSized(corpus.CUDA, 120, 0.3, 41)
	fresh := New().BuildFromSentences(g.Doc, g.Sentences)
	snap := legacySnapshot{
		Version:   1,
		Threshold: 0.15,
		Title:     g.Doc.Title,
		Sections:  g.Doc.Sections,
		Advising:  fresh.Rules(),
	}
	for _, s := range g.Sentences {
		snap.Sentences = append(snap.Sentences, legacySentence{Text: s.Text, Section: s.Section})
		snap.Terms = append(snap.Terms, textproc.NormalizeTerms(s.Text))
	}

	for _, tc := range []struct {
		name  string
		terms [][]string
	}{
		{"terms_only", snap.Terms},
		{"no_terms", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, version := range []int{1, snapshotVersion} {
				legacy := snap
				legacy.Version = version
				legacy.Terms = tc.terms
				var buf bytes.Buffer
				if err := gob.NewEncoder(&buf).Encode(legacy); err != nil {
					t.Fatal(err)
				}
				a, err := LoadAdvisor(&buf)
				if version != snapshotVersion || tc.terms == nil {
					if err == nil || a != nil {
						t.Fatalf("version %d legacy snapshot accepted: advisor %v, err %v", version, a != nil, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("version %d snapshot in the current shape refused: %v", version, err)
				}
				assertSameAsCold(t, a, fresh)
			}
		})
	}
}

// stampedSentence / stampedSnapshot mirror the version-2 wire shape written
// while each sentence carried a stored identity: a Sentence.ID string.
type stampedSentence struct {
	Text    string
	Section int
	ID      string
}

type stampedSnapshot struct {
	Version   int
	Threshold float64
	Title     string
	Sections  []htmldoc.Section
	Sentences []stampedSentence
	Advising  []AdvisingSentence
	Terms     [][]string
}

// TestLoadStampedSnapshot: a version-2 stream whose sentences each carry a
// stored ID still loads, since gob skips a field the receiving type lacks,
// so a snapshot written before identity was derived from content still
// warm-starts. It re-saves to the cold build's bytes, answers as the cold
// build does, and an update from it over its own sentences reuses every
// one.
func TestLoadStampedSnapshot(t *testing.T) {
	g := corpus.GenerateSized(corpus.CUDA, 150, 0.3, 39)
	cold := New().BuildFromSentences(g.Doc, g.Sentences)
	snap := stampedSnapshot{
		Version:   snapshotVersion,
		Threshold: cold.threshold,
		Title:     g.Doc.Title,
		Sections:  g.Doc.Sections,
		Advising:  cold.Rules(),
		Terms:     cold.terms,
	}
	for i, s := range cold.sentences {
		snap.Sentences = append(snap.Sentences, stampedSentence{Text: s.Text, Section: s.Section, ID: fmt.Sprintf("%032x", i)})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadAdvisor(&buf)
	if err != nil {
		t.Fatalf("stamped snapshot refused: %v", err)
	}
	assertSameAsCold(t, loaded, cold)
}

// assertSameAsCold checks that a loaded advisor is the cold build it was
// saved from: the same Save bytes and Float64bits-equal answers, and an
// incremental base for every one of its sentences.
func assertSameAsCold(t *testing.T, loaded, cold *Advisor) {
	t.Helper()
	if !bytes.Equal(saveBytes(t, loaded), saveBytes(t, cold)) {
		t.Error("the loaded advisor saves other bytes than the cold build")
	}
	for _, q := range persistQueries {
		sameAnswers(t, q, retrieve(loaded, q), retrieve(cold, q))
	}
	assertReusesAll(t, New(), loaded)
}

func TestLoadedAdvisorAnswersReports(t *testing.T) {
	g := corpus.GenerateSized(corpus.CUDA, 200, 0.25, 21)
	orig := New().BuildFromSentences(g.Doc, g.Sentences)
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadAdvisor(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Query("minimize divergent warps"); len(got) == 0 {
		t.Log("no answers on the small corpus; acceptable but suspicious")
	}
}
