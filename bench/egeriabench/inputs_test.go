package main

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/nlp"
)

func TestStreamsDependOnlyOnSeed(t *testing.T) {
	texts := guideTexts(corpus.Generate(corpus.CUDA, 1))
	hotTexts := map[string][]string{primaryAdvisor: texts, "opencl": texts[:500], "xeon": texts[500:1000]}
	streams := map[string]func(seed int64) *stream{
		"hot-query":  func(seed int64) *stream { return hotStream(seed, hotTexts) },
		"cold-query": func(seed int64) *stream { return coldStream(seed, texts) },
		"report":     reportStream,
	}
	const n = 300
	for name, mk := range streams {
		a, b, c := mk(1).digest(n), mk(1).digest(n), mk(2).digest(n)
		if a != b {
			t.Errorf("%s: seed 1 gave two different streams", name)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", name)
		}
	}
}

func TestColdQueriesNeverRepeat(t *testing.T) {
	s := coldStream(1, guideTexts(corpus.Generate(corpus.CUDA, 1)))
	seen := map[string]bool{}
	for i := 0; i < 2000; i++ {
		key := strings.Join(nlp.QueryTerms(s.at(i).query), " ")
		if seen[key] {
			t.Fatalf("cold query %d repeats normalized terms %q", i, key)
		}
		seen[key] = true
	}
}

func TestMetricSnapshotsTripTwoToSixIssues(t *testing.T) {
	s := reportStream(3)
	for i := 0; i < 500; i++ {
		body := s.at(i).report
		rep, err := parseReport(body)
		if err != nil {
			t.Fatalf("report %d: %v", i, err)
		}
		if body[0] != '{' {
			continue // a synthesized NVVP text report
		}
		if n := len(rep.Issues()); n < 2 || n > 6 {
			t.Fatalf("report %d has %d issues, want 2 to 6", i, n)
		}
	}
}

func TestEditsDependOnlyOnSeed(t *testing.T) {
	e1 := newEditor(corpus.Generate(corpus.CUDA, 1), 1)
	e2 := newEditor(corpus.Generate(corpus.CUDA, 1), 1)
	e3 := newEditor(corpus.Generate(corpus.CUDA, 1), 2)
	if e1.version(3) != e2.version(3) {
		t.Error("seed 1 gave two different edit sequences")
	}
	if e1.version(3) == e3.version(3) {
		t.Error("seeds 1 and 2 gave the same edit sequence")
	}
	if e1.version(0) == e1.version(1) {
		t.Error("an edit left the document unchanged")
	}
}

// digest is the SHA-256 of the first n requests.
func (s *stream) digest(n int) [32]byte {
	h := sha256.New()
	for i := 0; i < n; i++ {
		r := s.at(i)
		fmt.Fprintf(h, "%s\x00%s\x00%d\x00", r.advisor, r.query, len(r.report))
		h.Write(r.report)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}
