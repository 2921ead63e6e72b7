package main

import (
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/nvvp"
)

func TestBuildAdvisorFromCorpus(t *testing.T) {
	fw := core.New()
	for _, reg := range []string{"cuda", "opencl", "xeon", "XeonPhi"} {
		a, title, err := buildAdvisor(fw, "", reg, 1)
		if err != nil {
			t.Fatalf("%s: %v", reg, err)
		}
		if a.SentenceCount() == 0 || title == "" {
			t.Errorf("%s: empty advisor", reg)
		}
	}
	if _, _, err := buildAdvisor(fw, "", "fortran", 1); err == nil {
		t.Error("unknown corpus accepted")
	}
	if _, _, err := buildAdvisor(fw, "", "", 1); err == nil {
		t.Error("neither -doc nor -corpus rejected")
	}
}

func TestBuildAdvisorFromDocFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "guide.html")
	html := `<html><head><title>T</title></head><body><h1>1. X</h1>
<p>Avoid bank conflicts by padding. The warp size is thirty-two threads.</p></body></html>`
	if err := os.WriteFile(path, []byte(html), 0o644); err != nil {
		t.Fatal(err)
	}
	a, title, err := buildAdvisor(core.New(), path, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	if title != path || a.SentenceCount() != 2 {
		t.Errorf("title %q count %d", title, a.SentenceCount())
	}
	if _, _, err := buildAdvisor(core.New(), filepath.Join(dir, "missing.html"), "", 1); err == nil {
		t.Error("missing file accepted")
	}
}

func TestExportCorpusRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "xeon.html")
	if err := exportCorpus("xeon", 1, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Xeon Phi Best Practice Guide") {
		t.Error("exported HTML missing title")
	}
	a, _, err := buildAdvisor(core.New(), path, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.SentenceCount() != 558 {
		t.Errorf("re-ingested guide has %d sentences", a.SentenceCount())
	}
	if err := exportCorpus("bogus", 1, path); err == nil {
		t.Error("bogus register accepted")
	}
}

// TestParseAnyReportDispatch: the report subcommand reads both profiler
// formats through nvvp.ParseReport.
func TestParseAnyReportDispatch(t *testing.T) {
	// JSON metrics
	r, err := nvvp.ParseReport(`{"program": "k", "warp_execution_efficiency": 0.4,
		"occupancy": 0.9, "global_load_efficiency": 0.9, "branch_divergence": 0.0,
		"dram_utilization": 0.2, "issue_slot_utilization": 0.9,
		"low_throughput_inst_fraction": 0.0, "transfer_compute_ratio": 0.1}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Issues()) != 1 {
		t.Errorf("metrics issues: %+v", r.Issues())
	}
	// text report
	r2, err := nvvp.ParseReport("=== NVVP Analysis Report ===\nProgram: a.cu\n\n-- 1. Overview --\nbody\n")
	if err != nil {
		t.Fatal(err)
	}
	if r2.Program != "a.cu" {
		t.Errorf("program %q", r2.Program)
	}
	// garbage in both formats
	if _, err := nvvp.ParseReport("{broken json"); err == nil {
		t.Error("broken JSON accepted")
	}
	if _, err := nvvp.ParseReport("not a report"); err == nil {
		t.Error("broken text accepted")
	}
}

func TestPrimaryAdvisorName(t *testing.T) {
	cases := []struct{ corpus, doc, want string }{
		{"cuda", "", "cuda"},
		{"CUDA", "", "cuda"},
		{"XeonPhi", "", "xeon"},
		{"", "/tmp/guides/cuda-c-best-practices.html", "cuda-c-best-practices"},
		{"", "guide.md", "guide"},
	}
	for _, c := range cases {
		if got := primaryAdvisorName(c.corpus, c.doc); got != c.want {
			t.Errorf("primaryAdvisorName(%q, %q) = %q, want %q", c.corpus, c.doc, got, c.want)
		}
	}
}

func TestSplitList(t *testing.T) {
	if got := splitList(" opencl, xeon ,,"); len(got) != 2 || got[0] != "opencl" || got[1] != "xeon" {
		t.Errorf("splitList = %v", got)
	}
	if got := splitList(""); got != nil {
		t.Errorf("splitList(\"\") = %v, want nil", got)
	}
}

// TestCorpusRegisterHelper: every spelling -corpus, -corpora, diff and
// export accept resolves to a built-in guide, and an unknown name is
// refused.
func TestCorpusRegisterHelper(t *testing.T) {
	for _, name := range []string{"cuda", "OpenCL", "xeon", "xeonphi", "XeonPhi"} {
		if _, err := corpus.ParseRegister(name); err != nil {
			t.Errorf("ParseRegister(%q): %v", name, err)
		}
	}
	if _, err := corpus.ParseRegister("fortran"); err == nil {
		t.Error("unknown register accepted")
	}
}

// TestSaveLoadCLIRoundTrip covers the save -> load CLI path: an advisor
// saved the way `egeria save` writes it must come back through
// loadAdvisorFile (the `egeria load` entry) answering queries identically,
// and cmdLoad must reject unusable inputs with errors instead of exits.
func TestSaveLoadCLIRoundTrip(t *testing.T) {
	fw := core.New()
	orig, _, err := buildAdvisor(fw, "", "cuda", 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cuda.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := orig.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	loaded, err := loadAdvisorFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Name() != "cuda" {
		t.Errorf("loaded advisor named %q, want cuda (from filename)", loaded.Name())
	}
	if len(loaded.Rules()) != len(orig.Rules()) {
		t.Fatalf("rules: %d loaded vs %d original", len(loaded.Rules()), len(orig.Rules()))
	}
	q := "reduce global memory latency"
	oa, la := orig.Query(q), loaded.Query(q)
	if len(oa) != len(la) {
		t.Fatalf("answers: %d loaded vs %d original", len(la), len(oa))
	}
	for i := range oa {
		if oa[i].Score != la[i].Score || oa[i].Sentence.Index != la[i].Sentence.Index {
			t.Errorf("answer %d differs after round trip", i)
		}
	}

	// the cmdLoad dispatcher: valid subcommands work, junk is an error
	if err := cmdLoad(path, "rules", nil); err != nil {
		t.Errorf("load rules: %v", err)
	}
	if err := cmdLoad(path, "query", []string{"memory", "latency"}); err != nil {
		t.Errorf("load query: %v", err)
	}
	if err := cmdLoad(path, "query", nil); err == nil {
		t.Error("load query without text did not error")
	}
	if err := cmdLoad(path, "dance", nil); err == nil {
		t.Error("unknown load subcommand accepted")
	}
	if err := cmdLoad(filepath.Join(t.TempDir(), "missing.snap"), "rules", nil); err == nil {
		t.Error("missing snapshot file accepted")
	}
	garbage := filepath.Join(t.TempDir(), "bad.snap")
	if err := os.WriteFile(garbage, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdLoad(garbage, "rules", nil); err == nil {
		t.Error("garbage snapshot accepted")
	}
}

// TestCmdDiff: egeria diff prints the identity partition of a saved advisor
// against the current version of a source, and refuses a source that is
// neither a document path nor a built-in corpus name.
func TestCmdDiff(t *testing.T) {
	a, _, err := buildAdvisor(core.New(), "", "cuda", 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "cuda.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// counts parses the kept/added/removed lines of cmdDiff's output
	counts := func(source string, seed int64) map[string]int {
		t.Helper()
		var out strings.Builder
		if err := cmdDiff(&out, path, source, seed); err != nil {
			t.Fatal(err)
		}
		got := map[string]int{}
		for _, line := range strings.Split(out.String(), "\n") {
			if f := strings.Fields(line); len(f) == 2 && (f[0] == "kept" || f[0] == "added" || f[0] == "removed") {
				n, err := strconv.Atoi(f[1])
				if err != nil {
					t.Fatalf("line %q: %v", line, err)
				}
				got[f[0]] = n
			}
		}
		return got
	}
	if got := counts("cuda", 1); got["kept"] != a.SentenceCount() || got["added"] != 0 || got["removed"] != 0 {
		t.Errorf("same seed: %v, want kept %d, added 0, removed 0", got, a.SentenceCount())
	}
	if got := counts("cuda", 2); got["added"] == 0 || got["removed"] == 0 {
		t.Errorf("another seed: %v, want added and removed sentences", got)
	}
	html := filepath.Join(dir, "cuda.html")
	if err := exportCorpus("cuda", 1, html); err != nil {
		t.Fatal(err)
	}
	if got := counts(html, 1); got["kept"] == 0 {
		t.Errorf("exported guide: %v, want kept sentences", got)
	}
	if err := cmdDiff(io.Discard, path, "fortran", 1); err == nil {
		t.Error("a source that is neither a document nor a corpus name was accepted")
	}
}
