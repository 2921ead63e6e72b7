package store_test

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/htmldoc"
	"repro/internal/store"
)

func smallAdvisor(t testing.TB, seed int64) *core.Advisor {
	t.Helper()
	g := corpus.GenerateSized(corpus.CUDA, 60, 0.3, seed)
	return core.New().BuildFromSentences(g.Doc, g.Sentences)
}

func TestSaveLoadRoundTrip(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	orig := smallAdvisor(t, 3)
	man, err := st.Save("cuda", orig, "/guides/cuda.html", "hash123")
	if err != nil {
		t.Fatal(err)
	}
	if man.Advisor != "cuda" || man.SourceHash != "hash123" || man.SourcePath != "/guides/cuda.html" {
		t.Errorf("manifest identity wrong: %+v", man)
	}
	if man.FormatVersion != store.FormatVersion || man.Checksum == "" || man.Bytes == 0 {
		t.Errorf("manifest integrity fields wrong: %+v", man)
	}
	if man.Rules != len(orig.Rules()) || man.Sentences != orig.SentenceCount() {
		t.Errorf("manifest counts %d/%d, want %d/%d", man.Rules, man.Sentences, len(orig.Rules()), orig.SentenceCount())
	}

	loaded, man2, err := st.Load("cuda", "hash123")
	if err != nil {
		t.Fatal(err)
	}
	if man2.Checksum != man.Checksum {
		t.Errorf("manifest drifted between Save and Load")
	}
	if loaded.Name() != "cuda" {
		t.Errorf("loaded advisor name %q", loaded.Name())
	}
	or, lr := orig.Rules(), loaded.Rules()
	if len(or) != len(lr) {
		t.Fatalf("rules %d vs %d", len(or), len(lr))
	}
	for i := range or {
		if or[i] != lr[i] {
			t.Fatalf("rule %d differs", i)
		}
	}
	oa, la := orig.Query("reduce global memory latency"), loaded.Query("reduce global memory latency")
	if len(oa) != len(la) {
		t.Fatalf("answers %d vs %d", len(oa), len(la))
	}
}

func TestLoadMissing(t *testing.T) {
	st, _ := store.Open(t.TempDir())
	if _, _, err := st.Load("nope", "h"); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("missing snapshot: %v, want ErrNotFound", err)
	}
}

// TestLoadCorruption covers every way a snapshot can go bad: truncated
// payload, flipped bytes, garbage manifest, orphaned payload, and a format
// version from the future. Each must be ErrCorrupt (rebuild), never a panic
// or a clean miss.
func TestLoadCorruption(t *testing.T) {
	dir := t.TempDir()
	st, _ := store.Open(dir)
	if _, err := st.Save("cuda", smallAdvisor(t, 5), "", "h"); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(dir, "cuda.snap")
	manPath := filepath.Join(dir, "cuda.json")
	good, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	goodMan, _ := os.ReadFile(manPath)

	restore := func() {
		os.WriteFile(snapPath, good, 0o644)
		os.WriteFile(manPath, goodMan, 0o644)
	}

	cases := []struct {
		name    string
		corrupt func()
	}{
		{"truncated payload", func() { os.WriteFile(snapPath, good[:len(good)/2], 0o644) }},
		{"flipped byte", func() {
			bad := bytes.Clone(good)
			bad[len(bad)/2] ^= 0xff
			os.WriteFile(snapPath, bad, 0o644)
		}},
		{"garbage manifest", func() { os.WriteFile(manPath, []byte("{not json"), 0o644) }},
		{"payload without manifest", func() { os.Remove(manPath) }},
		{"version skew", func() {
			os.WriteFile(manPath, bytes.Replace(goodMan, []byte(`"format_version": 1`),
				[]byte(`"format_version": 99`), 1), 0o644)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			restore()
			c.corrupt()
			if _, _, err := st.Load("cuda", "h"); !errors.Is(err, store.ErrCorrupt) {
				t.Errorf("Load after %s: %v, want ErrCorrupt", c.name, err)
			}
		})
	}

	// and a valid pair still loads after all that
	restore()
	if _, _, err := st.Load("cuda", "h"); err != nil {
		t.Fatalf("restored snapshot does not load: %v", err)
	}
}

func TestQuarantine(t *testing.T) {
	dir := t.TempDir()
	st, _ := store.Open(dir)
	if _, err := st.Save("cuda", smallAdvisor(t, 7), "", "h"); err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(dir, "cuda.snap"), []byte("garbage"), 0o644)
	if _, _, err := st.Load("cuda", "h"); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("garbage payload: %v, want ErrCorrupt", err)
	}
	if err := st.Quarantine("cuda"); err != nil {
		t.Fatal(err)
	}
	// the bad bytes are preserved aside, and the name is now a clean miss
	if _, err := os.Stat(filepath.Join(dir, "cuda.snap.bad")); err != nil {
		t.Errorf("quarantined payload missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "cuda.json.bad")); err != nil {
		t.Errorf("quarantined manifest missing: %v", err)
	}
	if _, _, err := st.Load("cuda", "h"); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("after quarantine: %v, want ErrNotFound", err)
	}
	// quarantining a missing name is a no-op
	if err := st.Quarantine("ghost"); err != nil {
		t.Errorf("quarantine of missing snapshot: %v", err)
	}
}

// TestLoadStaleSkipsPayload: a manifest recording another source hash is
// ErrStale before the payload is read, so a garbage payload under it is not
// reported corrupt. Under the matching hash the same bytes are.
func TestLoadStaleSkipsPayload(t *testing.T) {
	dir := t.TempDir()
	st, _ := store.Open(dir)
	if _, err := st.Save("cuda", smallAdvisor(t, 7), "", "v1"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "cuda.snap"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, man, err := st.Load("cuda", "v2")
	if !errors.Is(err, store.ErrStale) || errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("stale garbage snapshot: %v, want ErrStale", err)
	}
	if man.SourceHash != "v1" {
		t.Errorf("stale snapshot's manifest hash %q, want v1", man.SourceHash)
	}
	if _, _, err := st.Load("cuda", "v1"); !errors.Is(err, store.ErrCorrupt) {
		t.Errorf("fresh garbage snapshot: %v, want ErrCorrupt", err)
	}
}

func TestInvalidNames(t *testing.T) {
	st, _ := store.Open(t.TempDir())
	a := smallAdvisor(t, 11)
	for _, name := range []string{"", "../escape", "a/b", ".hidden", "sp ace"} {
		if _, err := st.Save(name, a, "", "h"); err == nil {
			t.Errorf("Save accepted invalid name %q", name)
		}
		if _, _, err := st.Load(name, "h"); err == nil {
			t.Errorf("Load accepted invalid name %q", name)
		}
	}
}

func TestSaveOverwriteIsAtomic(t *testing.T) {
	dir := t.TempDir()
	st, _ := store.Open(dir)
	if _, err := st.Save("cuda", smallAdvisor(t, 13), "", "v1"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save("cuda", smallAdvisor(t, 14), "", "v2"); err != nil {
		t.Fatal(err)
	}
	// the v1 manifest is gone: its hash is stale, v2's loads
	if _, man, err := st.Load("cuda", "v1"); !errors.Is(err, store.ErrStale) || man.SourceHash != "v2" {
		t.Errorf("overwrite did not replace the manifest: %+v, %v", man, err)
	}
	if _, _, err := st.Load("cuda", "v2"); err != nil {
		t.Fatalf("overwritten snapshot does not load: %v", err)
	}
	// no temp litter left behind
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if n := e.Name(); n != "cuda.snap" && n != "cuda.json" {
			t.Errorf("unexpected file in store: %s", n)
		}
	}
}

func TestHashHelpers(t *testing.T) {
	if store.HashBytes([]byte("a")) == store.HashBytes([]byte("b")) {
		t.Error("hash collision on trivial inputs")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	os.WriteFile(path, []byte("content"), 0o644)
	h, err := store.HashFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if h != store.HashBytes([]byte("content")) {
		t.Error("HashFile disagrees with HashBytes")
	}
	if _, err := store.HashFile(filepath.Join(dir, "missing")); err == nil {
		t.Error("HashFile on a missing file succeeded")
	}
}

// snapshotWire mirrors the fields of core's snapshot stream. gob matches
// struct fields by name, so re-encoding one writes the stream a build with
// another format would have written.
type snapshotWire struct {
	Version   int
	Threshold float64
	Title     string
	Sections  []htmldoc.Section
	Sentences []htmldoc.Sentence
	Advising  []core.AdvisingSentence
	Terms     [][]string
}

// plantPayload replaces name's payload with data under a manifest that
// matches it, so only the stream itself can make Load refuse it.
func plantPayload(t *testing.T, dir, name string, data []byte) {
	t.Helper()
	path := filepath.Join(dir, name+".json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var man store.Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	man.Checksum, man.Bytes = store.HashBytes(data), int64(len(data))
	if raw, err = json.Marshal(man); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name+".snap"), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLoadRefusesOldFormats: one snapshot version is accepted, with one
// term list per sentence. A version-1 stream and a stream without term
// lists or with one too few are refused by core.LoadAdvisor, and store.Load
// reports each as ErrCorrupt under a manifest that matches its bytes.
func TestLoadRefusesOldFormats(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	adv := smallAdvisor(t, 41)
	var buf bytes.Buffer
	if err := adv.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var current snapshotWire
	if err := gob.NewDecoder(&buf).Decode(&current); err != nil {
		t.Fatal(err)
	}
	encode := func(snap snapshotWire) []byte {
		var b bytes.Buffer
		if err := gob.NewEncoder(&b).Encode(snap); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	// the mirror is faithful: the current stream re-encoded still loads
	if _, err := core.LoadAdvisor(bytes.NewReader(encode(current))); err != nil {
		t.Fatalf("re-encoded current snapshot refused: %v", err)
	}
	for _, c := range []struct {
		name   string
		mutate func(*snapshotWire)
	}{
		{"version_1", func(s *snapshotWire) { s.Version = 1 }},
		{"no_terms", func(s *snapshotWire) { s.Terms = nil }},
		{"terms_count", func(s *snapshotWire) { s.Terms = s.Terms[:len(s.Terms)-1] }},
	} {
		t.Run(c.name, func(t *testing.T) {
			snap := current
			c.mutate(&snap)
			data := encode(snap)
			if a, err := core.LoadAdvisor(bytes.NewReader(data)); err == nil || a != nil {
				t.Fatalf("LoadAdvisor accepted the stream: advisor %v, err %v", a != nil, err)
			}
			if _, err := st.Save(c.name, adv, "", "h"); err != nil {
				t.Fatal(err)
			}
			plantPayload(t, dir, c.name, data)
			if _, _, err := st.Load(c.name, "h"); !errors.Is(err, store.ErrCorrupt) {
				t.Fatalf("store.Load: %v, want ErrCorrupt", err)
			}
		})
	}
}
