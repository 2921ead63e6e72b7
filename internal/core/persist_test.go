package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/htmldoc"
	"repro/internal/textproc"
	"repro/internal/vsm"
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

// TestV1SnapshotLoads pins forward compatibility: a version-1 stream must
// load, not be rejected by the version gate, and answer bit-identically to
// a fresh build.
func TestV1SnapshotLoads(t *testing.T) {
	g := corpus.GenerateSized(corpus.CUDA, 120, 0.3, 41)
	fresh := New().BuildFromSentences(g.Doc, g.Sentences)
	snap := advisorSnapshot{
		Version:   1,
		Threshold: 0.15,
		Title:     g.Doc.Title,
		Sections:  g.Doc.Sections,
		Advising:  fresh.Rules(),
	}
	for _, s := range g.Sentences {
		snap.Sentences = append(snap.Sentences, htmldoc.Sentence{Text: s.Text, Section: s.Section})
		snap.Terms = append(snap.Terms, textproc.NormalizeTerms(s.Text))
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadAdvisor(&buf)
	if err != nil {
		t.Fatalf("v1 snapshot rejected: %v", err)
	}
	for _, q := range persistQueries {
		sameAnswers(t, q, loaded.Query(q), fresh.Query(q))
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
// one — loads (gob skips the field) and answers under both backends
// Float64bits-identically to a cold build.
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
			Shards:    shards,
		}
		for _, an := range cold.anns {
			snap.Terms = append(snap.Terms, an.Terms())
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadAdvisor(&buf)
		if err != nil {
			t.Fatalf("snapshot with %d shards rejected: %v", shards, err)
		}
		if !loaded.HasIdentity() {
			t.Fatalf("snapshot with %d shards: loaded advisor is no incremental base", shards)
		}
		for _, q := range persistQueries {
			for _, backend := range vsm.Backends() {
				sameAnswers(t, fmt.Sprintf("shards %d %s %q", shards, backend, q),
					retrieve(t, loaded, q, backend), retrieve(t, cold, q, backend))
			}
		}
	}
}

// legacySentence / legacySnapshot mirror the pre-identity wire shapes (no
// Sentence.ID field). gob matches struct fields by name, so encoding them
// reproduces exactly the streams older builds wrote.
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

// TestLoadLegacySnapshot pins snapshot back-compat: streams written before
// sentence identity existed (no ID field; with or without per-sentence
// Terms) must keep loading, answer identically to a fresh build, and — when
// Terms are present — come back as a valid incremental-rebuild base with the
// exact IDs a fresh extraction would stamp.
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
		name         string
		terms        [][]string
		wantIdentity bool
	}{
		{"terms_only", snap.Terms, true},
		{"no_terms", nil, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			legacy := snap
			legacy.Terms = tc.terms
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(legacy); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadAdvisor(&buf)
			if err != nil {
				t.Fatalf("legacy snapshot rejected: %v", err)
			}
			if got := loaded.HasIdentity(); got != tc.wantIdentity {
				t.Fatalf("HasIdentity = %v, want %v", got, tc.wantIdentity)
			}
			// load re-stamps the IDs a fresh extraction would assign
			fid, lid := fresh.SentenceIDs(), loaded.SentenceIDs()
			if len(fid) != len(lid) {
				t.Fatalf("%d vs %d sentence IDs", len(fid), len(lid))
			}
			for i := range fid {
				if fid[i] != lid[i] {
					t.Fatalf("sentence %d: re-stamped ID %s, fresh build has %s", i, lid[i], fid[i])
				}
			}
			lr := loaded.Rules()
			if len(lr) != len(fresh.Rules()) {
				t.Fatalf("rules: %d vs %d", len(lr), len(fresh.Rules()))
			}
			for _, q := range []string{"how to avoid shared memory bank conflicts", "reduce warp divergence"} {
				fa, la := fresh.Query(q), loaded.Query(q)
				if len(fa) != len(la) {
					t.Fatalf("query %q: %d vs %d answers", q, len(fa), len(la))
				}
				for i := range fa {
					if fa[i].Sentence.Index != la[i].Sentence.Index || !almostEq(fa[i].Score, la[i].Score) {
						t.Fatalf("query %q answer %d differs", q, i)
					}
				}
			}
		})
	}
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
