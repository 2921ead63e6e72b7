package service

import (
	"encoding/json"
	"net/url"
	"testing"
	"time"

	"repro/internal/vsm"
)

// FuzzQuery hammers the /v1 query handler with arbitrary query strings
// through the full stack — routing, tracing, admission, query annotation,
// cache keying, retrieval, the body writer. Seeds live in
// testdata/fuzz/FuzzQuery (the paper's Table 6 queries; regenerate with
// `go run ./tools/fuzzseed`) plus the edge cases below. Invariants: never a
// 5xx, never a panic, and every 200 body is byte for byte encoding/json of
// the QueryResponse over CachedQueryFull's answers, every answer at or
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
// ReportResponse.
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
