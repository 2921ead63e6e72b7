package nvvp

import (
	"runtime"
	"strings"
	"testing"
)

func TestSynthesizeAndParseRoundTrip(t *testing.T) {
	for _, prog := range Programs() {
		text, err := Synthesize(prog)
		if err != nil {
			t.Fatalf("%s: %v", prog, err)
		}
		r, err := Parse(text)
		if err != nil {
			t.Fatalf("%s: parse: %v\n%s", prog, err, text)
		}
		if r.Program != prog+".cu" {
			t.Errorf("%s: program = %q", prog, r.Program)
		}
		if len(r.Sections) != 4 {
			t.Errorf("%s: %d sections, want 4 (overview + 3 aspects)", prog, len(r.Sections))
		}
	}
}

func TestIssueCountsMatchTable6(t *testing.T) {
	wantIssues := map[string]int{
		"knnjoin":     2, // warp efficiency + divergent branches
		"knnjoin_opt": 1,
		"trans":       2,
		"trans_opt":   1,
		"norm":        2, // Table 3: register usage + divergent branches
	}
	for prog, want := range wantIssues {
		text, err := Synthesize(prog)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(r.Issues()); got != want {
			t.Errorf("%s: %d issues, want %d", prog, got, want)
		}
	}
}

func TestNormReportMatchesTable3(t *testing.T) {
	text, err := Synthesize("norm")
	if err != nil {
		t.Fatal(err)
	}
	r, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	issues := r.Issues()
	titles := []string{}
	for _, i := range issues {
		titles = append(titles, i.Title)
	}
	joined := strings.Join(titles, "|")
	if !strings.Contains(joined, "Register Usage") || !strings.Contains(joined, "Divergent Branches") {
		t.Errorf("norm issues = %v, want Table 3 rows", titles)
	}
	for _, i := range issues {
		if i.Description == "" {
			t.Errorf("issue %q has empty description", i.Title)
		}
		q := i.Query()
		if !strings.HasPrefix(q, i.Title) {
			t.Errorf("query does not lead with title: %q", q)
		}
	}
	// the register-usage description carries the paper's numbers
	if !strings.Contains(text, "31 registers") || !strings.Contains(text, "7936 registers") {
		t.Error("Table 3 description details missing")
	}
}

func TestIssueSectionsAssigned(t *testing.T) {
	text, _ := Synthesize("knnjoin")
	r, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range r.Issues() {
		if i.Section != "Compute Resources" {
			t.Errorf("knnjoin issue %q in section %q, want Compute Resources", i.Title, i.Section)
		}
	}
	text2, _ := Synthesize("trans_opt")
	r2, _ := Parse(text2)
	for _, i := range r2.Issues() {
		if i.Section != "Memory Bandwidth" {
			t.Errorf("trans_opt issue in %q", i.Section)
		}
	}
}

func TestParseMultilineDescriptions(t *testing.T) {
	text := `=== NVVP Analysis Report ===
Program: toy.cu

-- 1. Overview --
body text

-- 2. Compute Resources --
Optimization: Some Issue
first line of description
second line of description

trailing body text outside the issue
`
	r, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	issues := r.Issues()
	if len(issues) != 1 {
		t.Fatalf("issues: %+v", issues)
	}
	if issues[0].Description != "first line of description second line of description" {
		t.Errorf("description = %q", issues[0].Description)
	}
	if !strings.Contains(r.Sections[1].Body, "trailing body text") {
		t.Errorf("section body = %q", r.Sections[1].Body)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse("no header at all"); err == nil {
		t.Error("missing header accepted")
	}
	if _, err := Parse("=== NVVP Analysis Report ===\nProgram: x.cu\n"); err == nil {
		t.Error("no sections accepted")
	}
	if _, err := Parse("=== R ===\nOptimization: orphan\n"); err == nil {
		t.Error("orphan issue accepted")
	}
	if _, err := Synthesize("unknown_prog"); err == nil {
		t.Error("unknown program accepted")
	}
}

func TestEmptySectionsMarked(t *testing.T) {
	// per the paper, "some of the later three sections could be empty if no
	// issues exist in those aspects"
	text, _ := Synthesize("trans_opt")
	if !strings.Contains(text, "No issues detected in this aspect.") {
		t.Error("empty aspects should be marked")
	}
}

func TestWrap(t *testing.T) {
	out := wrap("aaa bbb ccc ddd", 7)
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if len(line) > 7 {
			t.Errorf("line too long: %q", line)
		}
	}
}

func BenchmarkParseReport(b *testing.B) {
	text, _ := Synthesize("knnjoin")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(text); err != nil {
			b.Fatal(err)
		}
	}
}

// TestParseLinearInSize: a report of ~64k short lines — an issue
// description and a section body that keep growing — allocates a small
// multiple of its own size: a builder grows about 1.25× a step, so each
// joined text costs about five times its length. Appending each line to
// the growing string copied it again and again (22 GB in 12 s here).
func TestParseLinearInSize(t *testing.T) {
	const lines = 1 << 15
	var b strings.Builder
	b.WriteString("=== NVVP Analysis Report ===\n-- 1. Overview --\n")
	for i := 0; i < lines; i++ {
		b.WriteString("body line\n")
	}
	b.WriteString("Optimization: Long\n")
	for i := 0; i < lines; i++ {
		b.WriteString("desc line\n")
	}
	text := b.String()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := Parse(text)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Sections[0]; len(got.Body) != lines*len("body line ")-1 || len(got.Issues[0].Description) != lines*len("desc line ")-1 {
		t.Fatalf("body %d bytes, description %d bytes", len(got.Body), len(got.Issues[0].Description))
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 8*uint64(len(text)) {
		t.Fatalf("parsing %d bytes allocated %d", len(text), alloc)
	}
}
