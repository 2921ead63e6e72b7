package service

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
)

// small advisors for registry tests; built once (Stage I is the expensive part)
var (
	tinyOnce sync.Once
	tinyV1   *core.Advisor
	tinyV2   *core.Advisor
)

func tinyAdvisors(t testing.TB) (*core.Advisor, *core.Advisor) {
	t.Helper()
	tinyOnce.Do(func() {
		fw := core.New()
		g1 := corpus.GenerateSized(corpus.CUDA, 60, 0.3, 41)
		g2 := corpus.GenerateSized(corpus.CUDA, 60, 0.3, 42)
		tinyV1 = fw.BuildFromSentences(g1.Doc, g1.Sentences)
		tinyV2 = fw.BuildFromSentences(g2.Doc, g2.Sentences)
	})
	return tinyV1, tinyV2
}

func TestRegistryAddGetNames(t *testing.T) {
	v1, _ := tinyAdvisors(t)
	r := NewRegistry()
	if _, ok := r.Get("cuda"); ok {
		t.Error("empty registry returned an advisor")
	}
	r.Add("cuda", v1)
	r.Add("alpha", v1)
	if got, ok := r.Get("cuda"); !ok || got != v1 {
		t.Error("Get after Add failed")
	}
	if v1.Name() != "alpha" {
		t.Errorf("Add must stamp the advisor name; got %q", v1.Name())
	}
	names := r.Names()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "cuda" {
		t.Errorf("Names() = %v, want sorted [alpha cuda]", names)
	}
	if r.Len() != 2 {
		t.Errorf("Len() = %d", r.Len())
	}
}

func TestRegistryReplaceLogsDiff(t *testing.T) {
	v1, v2 := tinyAdvisors(t)
	r := NewRegistry()
	var mu sync.Mutex
	var lines []string
	r.SetLogf(func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	})
	r.Replace("cuda", v1) // fresh name: "loaded"
	diff := r.Replace("cuda", v2)
	if got, _ := r.Get("cuda"); got != v2 {
		t.Fatal("Replace did not swap the advisor")
	}
	want := core.DiffRules(v1, v2)
	if diff.Short() != want.Short() {
		t.Errorf("diff %q, want %q", diff.Short(), want.Short())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 2 {
		t.Fatalf("log lines %v, want 2", lines)
	}
	if !strings.HasPrefix(lines[0], "loaded cuda:") {
		t.Errorf("first line %q, want loaded", lines[0])
	}
	wantLine := fmt.Sprintf("reloaded cuda: %s", want.Short())
	if lines[1] != wantLine {
		t.Errorf("hot-swap line %q, want %q", lines[1], wantLine)
	}
}
