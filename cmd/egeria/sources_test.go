package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/lifecycle"
	"repro/internal/nlp"
	"repro/internal/obs"
)

// TestServeDocSourceReload drives the production document source: serve an
// exported guide through -doc with a snapshot directory, rewrite one
// sentence of the file and reload. The reload updates the serving advisor,
// reusing every other sentence; /statsz gains the advisor's last_swap,
// which it lacked before; its answers equal a cold build of the edited
// file; and a second boot over the same directory loads the reloaded
// snapshot.
func TestServeDocSourceReload(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "guide.html")
	if err := exportCorpus("cuda", 1, path); err != nil {
		t.Fatal(err)
	}
	cfg := serveConfig{
		primaryName: primaryAdvisorName("", path),
		docPath:     path,
		snapshotDir: filepath.Join(dir, "snapshots"),
		cacheSize:   16,
		maxInflight: 4,
		timeout:     5 * time.Second,
		metrics:     obs.NewRegistry(),
	}
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	handler, svc, _, err := buildServeHandler(core.New(), cfg, logger)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(handler)
	defer ts.Close()
	_, before := httpGet(t, ts.URL+"/statsz")
	if !strings.Contains(string(before), `"advisors":[{`) || strings.Contains(string(before), `"last_swap"`) {
		t.Fatalf("statsz before any reload, want an advisor with no last_swap: %s", before)
	}

	// rewrite a sentence whose text occurs once in the file
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	html := string(data)
	d, err := parseDocFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old := ""
	for _, s := range d.Sentences() {
		if len(s.Text) > 40 && strings.Count(html, s.Text) == 1 && !strings.ContainsAny(s.Text, "&<>") {
			old = s.Text
			break
		}
	}
	if old == "" {
		t.Fatal("no sentence of the exported guide occurs once in its HTML")
	}
	html = strings.Replace(html, old, "Prefer pinned host memory when staging large transfers to the device.", 1)
	if err := os.WriteFile(path, []byte(html), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/admin/reload?advisor="+cfg.primaryName, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: %d %s", resp.StatusCode, body)
	}

	d, err = parseDocFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := core.New().BuildFromDocument(d)
	n := want.SentenceCount()
	code, body := httpGet(t, ts.URL+"/statsz")
	if code != http.StatusOK {
		t.Fatalf("statsz: %d", code)
	}
	var stats struct {
		Lifecycle *lifecycle.State `json:"lifecycle"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Lifecycle == nil || len(stats.Lifecycle.Advisors) != 1 || stats.Lifecycle.Advisors[0].LastSwap == nil {
		t.Fatalf("statsz lifecycle, want one advisor with a last_swap: %s", body)
	}
	if got, want := stats.Lifecycle.Advisors[0].LastReuseRatio, float64(n-1)/float64(n); got != want {
		t.Errorf("last_reuse_ratio = %v, want %v (%d of %d sentences kept)", got, want, n-1, n)
	}
	got, ok := svc.Registry().Get(cfg.primaryName)
	if !ok {
		t.Fatal("reloaded advisor missing from the registry")
	}
	for _, q := range corpus.CUDAQueries() {
		terms := nlp.QueryTerms(q.Text)
		ag := got.Retrieve(context.Background(), terms, got.Threshold())
		aw := want.Retrieve(context.Background(), terms, want.Threshold())
		if len(ag) != len(aw) {
			t.Fatalf("query %q: %d answers, cold build %d", q.Text, len(ag), len(aw))
		}
		for i := range aw {
			if *ag[i].Sentence != *aw[i].Sentence || math.Float64bits(ag[i].Score) != math.Float64bits(aw[i].Score) {
				t.Fatalf("query %q answer %d: %+v, cold build %+v", q.Text, i, ag[i], aw[i])
			}
		}
	}

	cfg.metrics = obs.NewRegistry()
	_, svc2, _, err := buildServeHandler(core.New(), cfg, logger)
	if err != nil {
		t.Fatal(err)
	}
	if lc := svc2.Stats().Lifecycle; lc == nil || lc.SnapshotHits != 1 || lc.SnapshotMisses != 0 {
		t.Errorf("second boot over the reloaded snapshot: %+v, want one hit", lc)
	}
}

// TestServeSources: the serve flags name the primary advisor first and each
// -corpora extra once, under its canonical name, skipping the primary.
func TestServeSources(t *testing.T) {
	cases := []struct {
		name string
		cfg  serveConfig
		want []string // nil: an error
	}{
		{"corpus primary", serveConfig{primaryName: "cuda", corpusReg: "cuda", extra: []string{"xeonphi", "cuda"}}, []string{"cuda", "xeon"}},
		{"document primary", serveConfig{primaryName: "guide", docPath: "guide.html", extra: []string{"OpenCL"}}, []string{"guide", "opencl"}},
		{"unknown extra", serveConfig{primaryName: "cuda", corpusReg: "cuda", extra: []string{"fortran"}}, nil},
		{"unknown primary", serveConfig{primaryName: "fortran", corpusReg: "fortran"}, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			srcs, err := serveSources(core.New(), c.cfg, "cfg")
			if c.want == nil {
				if err == nil {
					t.Fatal("unknown guide accepted")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for _, s := range srcs {
				names = append(names, s.Name)
			}
			if !slices.Equal(names, c.want) {
				t.Errorf("sources %v, want %v", names, c.want)
			}
			if srcs[0].Path != c.cfg.docPath {
				t.Errorf("primary source path %q, want %q", srcs[0].Path, c.cfg.docPath)
			}
			// a built-in guide builds from nothing, and an update of the
			// unchanged guide reuses every sentence
			extra := srcs[len(srcs)-1]
			if fp, err := extra.Fingerprint(); err != nil || fp == "" {
				t.Fatalf("%s fingerprint %q: %v", extra.Name, fp, err)
			}
			a, err := extra.Build(context.Background(), nil)
			if err != nil {
				t.Fatal(err)
			}
			next, err := extra.Build(context.Background(), a)
			if err != nil {
				t.Fatal(err)
			}
			if st := next.BuildStats(); a.SentenceCount() == 0 || st.Reused != st.Sentences {
				t.Errorf("%s: update of the unchanged guide reused %d of %d sentences", extra.Name, st.Reused, st.Sentences)
			}
		})
	}
}

// TestSnapshotsKeyedToBuildID: a snapshot is keyed to the binary that wrote
// it. Under build A a second boot warm-starts from A's snapshot. Under build
// B that snapshot is stale, not corrupt: nothing is quarantined, the
// advisor is cold-built and its snapshot replaces A's, which B's next boot
// loads. A binary with no build ID neither reads nor writes snapshots, and
// logs that warm start is off.
func TestSnapshotsKeyedToBuildID(t *testing.T) {
	if id, err := readBuildID(); err != nil || id == "" {
		t.Fatalf("the test binary's build ID: %q, %v", id, err)
	}
	dir := t.TempDir()
	saved := executableBuildID
	t.Cleanup(func() { executableBuildID = saved })
	boot := func(id string, idErr error) (lifecycle.AdvisorState, lifecycle.State, string) {
		t.Helper()
		executableBuildID = func() (string, error) { return id, idErr }
		var logs strings.Builder
		cfg := serveConfig{
			primaryName: "xeon",
			corpusReg:   "xeon",
			seed:        1,
			snapshotDir: dir,
			cacheSize:   16,
			maxInflight: 4,
			timeout:     5 * time.Second,
			metrics:     obs.NewRegistry(),
		}
		_, _, mgr, err := buildServeHandler(core.New(), cfg, slog.New(slog.NewTextHandler(&logs, nil)))
		if err != nil {
			t.Fatal(err)
		}
		st := mgr.State()
		return st.Advisors[0], st, logs.String()
	}
	manifest := func() string {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(dir, "xeon.json"))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	if adv, _, _ := boot("A", nil); adv.Origin != "build" {
		t.Fatalf("first boot under A: origin %q, want build", adv.Origin)
	}
	underA := manifest()
	if adv, _, _ := boot("A", nil); adv.Origin != "snapshot" {
		t.Fatalf("second boot under A: origin %q, want snapshot", adv.Origin)
	}

	adv, st, logs := boot("B", nil)
	if adv.Origin != "build" || st.SnapshotBad != 0 || !strings.Contains(logs, "snapshot stale") {
		t.Fatalf("boot under B: origin %q, %d corrupt, log:\n%s\nwant a stale snapshot and a cold build", adv.Origin, st.SnapshotBad, logs)
	}
	if bad, _ := filepath.Glob(filepath.Join(dir, "*.bad")); len(bad) > 0 {
		t.Errorf("boot under B quarantined %v", bad)
	}
	if manifest() == underA {
		t.Error("boot under B left A's snapshot in place")
	}
	if adv, _, _ := boot("B", nil); adv.Origin != "snapshot" {
		t.Errorf("second boot under B: origin %q, want snapshot", adv.Origin)
	}

	underB := manifest()
	adv, st, logs = boot("", errors.New("no .note.go.buildid section"))
	if adv.Origin != "build" || st.SnapshotHits+st.SnapshotMisses != 0 || !strings.Contains(logs, "warm start off") {
		t.Errorf("boot with no build ID: origin %q, %d hits, %d misses, log:\n%s\nwant a cold build with no snapshot store", adv.Origin, st.SnapshotHits, st.SnapshotMisses, logs)
	}
	if manifest() != underB {
		t.Error("a boot with no build ID wrote a snapshot")
	}
}
