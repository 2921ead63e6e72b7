package main

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/corpus"
	"repro/internal/nlp"
	"repro/internal/service"
)

// smallScenario serves one small CUDA guide under cold-query traffic.
func smallScenario(t *testing.T) *scenario {
	t.Helper()
	g := corpus.GenerateSized(corpus.CUDA, 300, 0.2, 1)
	sc := &scenario{seed: 1, edits: newEditor(g, 1)}
	sc.primary = sc.edits.version(0)
	sc.stream = coldStream(1, docTexts(sc.primary))
	return sc
}

// served renders the body the server sends for req, with edit applied to
// the oracle's answers, and records it as a response.
func served(t *testing.T, c *checker, req request, edit func([]service.Answer)) record {
	t.Helper()
	answers, err := answer(c.o.advisors[req.advisor], nlp.QueryTerms(req.query))
	if err != nil {
		t.Fatal(err)
	}
	resp := service.QueryResponse{
		Advisor: req.advisor, Query: req.query, Count: len(answers), Answers: toAnswers(answers),
		TraceID: "0123456789abcdef",
	}
	edit(resp.Answers)
	body, err := encodeBody(resp)
	if err != nil {
		t.Fatal(err)
	}
	return record{hash: bodyHash(body), status: 200}
}

func TestVerifierIsBitExact(t *testing.T) {
	sc := smallScenario(t)
	c := newOracle(sc).checker()
	// find a query with at least two answers
	var req request
	for i := 0; ; i++ {
		req = sc.stream.at(i)
		if as, _ := answer(c.o.advisors[primaryAdvisor], nlp.QueryTerms(req.query)); len(as) >= 2 {
			break
		}
		if i > 5000 {
			t.Fatal("no query with two answers")
		}
	}
	for _, tc := range []struct {
		name string
		edit func([]service.Answer)
		want bool
	}{
		{"unchanged", func([]service.Answer) {}, true},
		{"one ULP", func(as []service.Answer) { as[0].Score = math.Nextafter(as[0].Score, 2) }, false},
		{"reordered", func(as []service.Answer) { as[0], as[1] = as[1], as[0] }, false},
	} {
		r := served(t, c, req, tc.edit)
		got, err := c.check(r, req)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%s: check = %v, want %v", tc.name, got, tc.want)
		}
	}
	if ok, _ := c.check(record{status: 500}, req); ok {
		t.Error("a 500 passed the check")
	}
}

func TestBodyHashIgnoresOnlyTheTraceID(t *testing.T) {
	a, _ := json.Marshal(service.ErrorResponse{Error: "x", TraceID: "aaaa"})
	b, _ := json.Marshal(service.ErrorResponse{Error: "x", TraceID: "bbbb"})
	c, _ := json.Marshal(service.ErrorResponse{Error: "y", TraceID: "aaaa"})
	if bodyHash(a) != bodyHash(b) {
		t.Error("bodies that differ only in trace_id hash differently")
	}
	if bodyHash(a) == bodyHash(c) {
		t.Error("bodies that differ outside trace_id hash alike")
	}
}
