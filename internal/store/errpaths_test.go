package store_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/store"
)

// The degraded-directory and orphan-file paths: what List, GC, Quarantine,
// and Load do when the store directory is damaged in ways a crash, an
// operator, or a foreign process can produce.

func TestOpenErrors(t *testing.T) {
	if _, err := store.Open(""); err == nil {
		t.Error("Open(\"\") accepted")
	}
	// a path through a regular file cannot be created as a directory
	dir := t.TempDir()
	file := filepath.Join(dir, "plain")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Open(filepath.Join(file, "sub")); err == nil {
		t.Error("Open through a regular file accepted")
	}
	st, err := store.Open(filepath.Join(dir, "snaps"))
	if err != nil {
		t.Fatal(err)
	}
	// once the directory is gone, Save cannot stage its temp file
	if err := os.RemoveAll(filepath.Join(dir, "snaps")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save("cuda", smallAdvisor(t, 3), "", "h"); err == nil {
		t.Error("Save into a missing directory reported success")
	}
}

// TestManifestProbe: the manifest a snapshot is probed through — the one
// Save returns and the one Load reads back — records what was saved, and
// Load refuses a bad name and reports a missing pair as ErrNotFound.
func TestManifestProbe(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Load("no/slash", "h1"); err == nil {
		t.Error("invalid name accepted")
	}
	if _, _, err := st.Load("absent", "h1"); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("missing pair: %v, want ErrNotFound", err)
	}
	adv := smallAdvisor(t, 3)
	saved, err := st.Save("cuda", adv, "guide.html", "h1")
	if err != nil {
		t.Fatal(err)
	}
	if saved.FormatVersion != store.FormatVersion || saved.Advisor != "cuda" ||
		saved.SourcePath != "guide.html" || saved.SourceHash != "h1" || saved.BuiltAt.IsZero() ||
		saved.Bytes == 0 || saved.Checksum == "" ||
		saved.Rules != len(adv.Rules()) || saved.Sentences != adv.SentenceCount() {
		t.Fatalf("Save's manifest: %+v", saved)
	}
	_, loaded, err := st.Load("cuda", "h1")
	if err != nil || !loaded.BuiltAt.Equal(saved.BuiltAt) {
		t.Fatalf("Load's manifest %+v (%v), want what Save returned %+v", loaded, err, saved)
	}
	if loaded.BuiltAt = saved.BuiltAt; loaded != saved {
		t.Fatalf("Load's manifest %+v, want what Save returned %+v", loaded, saved)
	}
}

// TestOrphanPayload: a .snap with no manifest is an interrupted or foreign
// write — ErrCorrupt from Load, never a clean miss.
func TestOrphanPayload(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "cuda.snap"), []byte("payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Load("cuda", "h"); !errors.Is(err, store.ErrCorrupt) {
		t.Errorf("orphan payload load: %v, want ErrCorrupt", err)
	}
	// quarantine moves the half that exists; the next load is a clean miss
	if err := st.Quarantine("cuda"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "cuda.snap.bad")); err != nil {
		t.Errorf("orphan payload not quarantined: %v", err)
	}
	if _, _, err := st.Load("cuda", "h"); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("post-quarantine load: %v, want ErrNotFound", err)
	}
}

// TestOrphanManifest: a manifest with no payload fails Load as corruption
// (the manifest promises bytes that are not there), and quarantine clears
// it.
func TestOrphanManifest(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save("cuda", smallAdvisor(t, 3), "", "h1"); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "cuda.snap")); err != nil {
		t.Fatal(err)
	}
	// the manifest itself is sound: Load reads it, returns it with the
	// error, and only then misses the payload it promises
	if _, man, err := st.Load("cuda", "h1"); !errors.Is(err, store.ErrCorrupt) || man.SourceHash != "h1" {
		t.Errorf("orphan manifest load: %v with manifest %+v, want ErrCorrupt with the manifest", err, man)
	}
	// quarantine clears it
	if err := st.Quarantine("cuda"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Load("cuda", "h1"); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("post-quarantine load: %v, want ErrNotFound", err)
	}
}

func TestQuarantineInvalidAndMissing(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Quarantine("../escape"); err == nil {
		t.Error("invalid name accepted")
	}
	// nothing to move is not an error: the goal state (clean miss) holds
	if err := st.Quarantine("absent"); err != nil {
		t.Errorf("quarantining nothing: %v", err)
	}
}

// TestLoadSizeMismatch: a payload whose length disagrees with the manifest
// is corrupt before any checksum work happens.
func TestLoadSizeMismatch(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save("cuda", smallAdvisor(t, 3), "", "h"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "cuda.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "cuda.snap"), append(data, "trailing"...), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = st.Load("cuda", "h")
	if !errors.Is(err, store.ErrCorrupt) || !strings.Contains(err.Error(), "bytes") {
		t.Errorf("size mismatch: %v", err)
	}
}

func TestHashFileMissing(t *testing.T) {
	if _, err := store.HashFile(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Error("HashFile on a missing file reported success")
	}
}
