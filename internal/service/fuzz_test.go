package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nlp"
	"repro/internal/vsm"
)

// FuzzQuery hammers the /v1 query handler with arbitrary query strings
// through the full stack — routing, tracing, admission, query annotation,
// cache keying, retrieval, the body writer. Seeds live in
// testdata/fuzz/FuzzQuery (the paper's Table 6 queries; regenerate with
// `go run ./tools/fuzzseed`) plus the edge cases below. Invariants: never a
// 5xx, never a panic, and every 200 body is byte for byte encoding/json of
// the QueryResponse over uncached retrieval's answers, every answer at or
// above the threshold.
func FuzzQuery(f *testing.F) {
	f.Add("")
	f.Add(" ")
	f.Add("how to reduce global memory latency")
	f.Add("?q=injection&x=1#frag")
	f.Add("<script>alert(1)</script>")
	f.Add("\x00\x01\x02 control bytes")
	f.Add("\xff\xfe invalid utf8")
	f.Add("словами на другом языке 漢字")

	reg := NewRegistry()
	reg.Add("cuda", e2eAdvisor(f))
	svc := New(reg, Options{Timeout: 10 * time.Second})

	f.Fuzz(func(t *testing.T, q string) {
		rec := serve(svc, "GET", "/v1/cuda/query?q="+url.QueryEscape(q), nil)
		if rec.Code >= 500 {
			t.Fatalf("query %q: status %d body %s", q, rec.Code, rec.Body.String())
		}
		if rec.Code == 200 {
			if err := checkQuery(svc, rec, "cuda", "", q); err != nil {
				t.Fatalf("query %q: %v", q, err)
			}
			var resp QueryResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("query %q: 200 body is not a QueryResponse: %v", q, err)
			}
			for _, a := range resp.Answers {
				if a.Score < vsm.DefaultThreshold {
					t.Fatalf("query %q: answer below threshold: %v", q, a.Score)
				}
			}
		}
	})
}

// FuzzReport sends arbitrary bodies to POST /v1/{advisor}/report: the text
// and JSON-metrics parsers, the issue cap, one cached query per issue and
// the body writer. Seeds live in testdata/fuzz/FuzzReport (the synthesized
// NVVP reports, metrics snapshots and hostile program and title strings;
// regenerate with `go run ./tools/fuzzseed`). Invariants: never a 5xx,
// never a panic, and every 200 body is byte for byte encoding/json of its
// ReportResponse over uncached retrieval of each issue.
func FuzzReport(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("{}"))
	f.Add([]byte("=== R ===\n-- 1. Overview --\nnothing to report\n"))

	reg := NewRegistry()
	reg.Add("cuda", e2eAdvisor(f))
	svc := New(reg, Options{Timeout: 10 * time.Second})

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := serve(svc, "POST", "/v1/cuda/report", body)
		if rec.Code >= 500 {
			t.Fatalf("report %q: status %d body %s", body, rec.Code, rec.Body.String())
		}
		if rec.Code == 200 {
			if err := checkReport(svc, rec, "cuda", body); err != nil {
				t.Fatalf("report %q: %v", body, err)
			}
		}
	})
}

// FuzzBatch sends arbitrary bodies to POST /v1/batch over two advisors:
// the JSON decoder, the batch bounds, the worker pool and each item's
// cached query. Seeds live in testdata/fuzz/FuzzBatch (batches of the
// paper's Table 6 queries across advisors and backends, and malformed
// ones; regenerate with `go run ./tools/fuzzseed`). Invariants: never a
// 5xx, never a panic, and every 200 body is byte for byte encoding/json of
// the BatchResponse whose answered items equal uncached retrieval of their
// own queries, and whose items naming a backend other than "vsm" ("bm25"
// among the seeds) carry the unknown-backend error.
func FuzzBatch(f *testing.F) {
	f.Add([]byte(`{"queries":[{"advisor":"cuda","query":"memory latency"}]}`))
	f.Add([]byte(`{"queries":[{"advisor":"opencl","query":"memory latency 23%","backend":"bm25"},{"advisor":"nope","query":"x"}]}`))
	f.Add([]byte(`{"queries":[]}`))

	svc := New(twoAdvisorRegistry(f), Options{Timeout: 10 * time.Second})

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := serve(svc, http.MethodPost, "/v1/batch", body)
		if rec.Code >= 500 {
			t.Fatalf("batch %q: status %d body %s", body, rec.Code, rec.Body.String())
		}
		if rec.Code == 200 {
			if err := checkBatch(svc, rec, body); err != nil {
				t.Fatalf("batch %q: %v", body, err)
			}
		}
	})
}

// checkBatch reports how a 200 answer to POST /v1/batch with body differs
// from its oracle: encoding/json of the BatchResponse in which every item
// fails exactly when its query is empty, its backend is not the one model
// or uncached retrieval of its query cannot answer, and otherwise carries
// that retrieval's answers. Trace IDs, the cache outcome and the error
// texts of failed retrievals are read from the body.
func checkBatch(svc *Service, rec *httptest.ResponseRecorder, body []byte) error {
	var req BatchRequest
	var got BatchResponse
	if err := json.Unmarshal(body, &req); err != nil {
		return fmt.Errorf("200 for a body that does not decode: %v", err)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || len(got.Results) != len(req.Queries) {
		return fmt.Errorf("%d results for %d items (%v): %s", len(got.Results), len(req.Queries), err, rec.Body)
	}
	want := BatchResponse{Count: len(req.Queries), Results: make([]BatchItemResult, len(req.Queries)), TraceID: got.TraceID}
	for i, item := range req.Queries {
		res := got.Results[i]
		w := BatchItemResult{Advisor: item.Advisor, Query: item.Query, Backend: item.Backend, Error: res.Error, TraceID: res.TraceID}
		var answers []core.Answer
		var err error
		switch {
		case strings.TrimSpace(item.Query) == "":
			err = errors.New("empty query")
			w.Error = err.Error()
		case item.Backend != "" && item.Backend != "vsm":
			err = fmt.Errorf("vsm: unknown scoring backend: %q", item.Backend)
			w.Error = err.Error()
		default:
			answers, err = retrieve(svc, item.Advisor, item.Query)
			if err == nil {
				err = boundQuery(item.Advisor, nlp.QueryTerms(item.Query))
			}
		}
		if (err != nil) != (res.Error != "") {
			return fmt.Errorf("item %d: error %q, oracle error %v", i, res.Error, err)
		}
		if err != nil {
			want.Errors++
		} else if res.Cache == "hit" || res.Cache == "miss" {
			w.Count, w.Answers, w.Cache = len(answers), toAnswers(answers), res.Cache
		} else {
			return fmt.Errorf("item %d: cache %q", i, res.Cache)
		}
		want.Results[i] = w
	}
	return sameBody(rec, want)
}

// FuzzAsk sends arbitrary query strings to GET /v1/ask over two advisors:
// the form parser, the q, backend and k checks, the query bounds and one
// cached query per advisor, then the merge. Seeds live in
// testdata/fuzz/FuzzAsk (the paper's Table 6 queries under every backend
// spelling and several k, and malformed parameters; regenerate with
// `go run ./tools/fuzzseed`). Invariants: never a 5xx, never a panic, a
// query naming a backend other than "vsm" ("bm25" among the seeds) is a
// 400 naming it, and every 200 body is byte for byte encoding/json of the
// AskResponse merged from uncached retrieval of the query on every
// advisor.
func FuzzAsk(f *testing.F) {
	f.Add("q=how+to+reduce+global+memory+latency")
	f.Add("q=memory+latency+71%25&backend=bm25&k=1")
	f.Add("q=%zz&k=x")

	svc := New(twoAdvisorRegistry(f), Options{Timeout: 10 * time.Second})

	f.Fuzz(func(t *testing.T, raw string) {
		req := httptest.NewRequest(http.MethodGet, "/v1/ask", nil)
		req.URL.RawQuery = raw
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("ask %q: status %d body %s", raw, rec.Code, rec.Body.String())
		}
		if err := checkAsk(svc, rec, raw); err != nil {
			t.Fatalf("ask %q: %v", raw, err)
		}
	})
}

// checkAsk reports how an answer to GET /v1/ask?raw differs from its
// oracle. A query naming a backend other than the one model is a 400
// whose error names it. Any other 200 is encoding/json of the AskResponse
// whose answers are each advisor's k best uncached answers to q,
// normalized by that advisor's best and ranked by norm, then advisor, then
// rule index; other client errors are not modelled.
func checkAsk(svc *Service, rec *httptest.ResponseRecorder, raw string) error {
	v, _ := url.ParseQuery(raw)
	q, backend := strings.TrimSpace(v.Get("q")), strings.TrimSpace(v.Get("backend"))
	if q != "" && backend != "" && backend != "vsm" {
		return sameError(rec, http.StatusBadRequest, fmt.Sprintf("vsm: unknown scoring backend: %q", backend))
	}
	if rec.Code != http.StatusOK {
		return nil
	}
	k := DefaultFederationK
	if kq := strings.TrimSpace(v.Get("k")); kq != "" {
		n, err := strconv.Atoi(kq)
		if err != nil || n <= 0 {
			return fmt.Errorf("200 for k=%q", kq)
		}
		k = n
	}
	var merged []FederatedAnswer
	for _, name := range svc.reg.Names() {
		answers, err := retrieve(svc, name, q)
		if err != nil {
			return fmt.Errorf("oracle %s: %v", name, err)
		}
		for _, a := range answers[:min(k, len(answers))] {
			norm := 0.0
			if best := answers[0].Score; best > 0 {
				norm = a.Score / best
			}
			merged = append(merged, FederatedAnswer{Advisor: name, Rule: toRule(*a.Sentence), Score: a.Score, Norm: norm})
		}
	}
	sort.Slice(merged, func(a, b int) bool {
		x, y := merged[a], merged[b]
		if x.Norm != y.Norm {
			return x.Norm > y.Norm
		}
		if x.Advisor != y.Advisor {
			return x.Advisor < y.Advisor
		}
		return x.Rule.Index < y.Rule.Index
	})
	return sameBody(rec, AskResponse{Query: q, Backend: backend, K: k, Count: len(merged), Answers: merged,
		TraceID: rec.Header().Get("X-Trace-Id")})
}
