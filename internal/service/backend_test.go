package service

import (
	"fmt"
	"net/http"
	"net/url"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestBackendWireContract pins what a request may say about the scoring
// backend, of which there is one. On /v1/{advisor}/query, a /v1/batch item
// and /v1/ask, a backend that is absent, empty or "vsm" answers 200 with
// the body of the request that names none plus the echo of the name; any
// other name, in any case, is a 400 (an item error in a batch) that names
// it. Nothing serves /v1/backends.
func TestBackendWireContract(t *testing.T) {
	svc := New(twoAdvisorRegistry(t), Options{Metrics: obs.NewRegistry(), Timeout: 10 * time.Second})
	const q = "reduce global memory latency"
	for _, c := range []struct {
		label   string
		present bool // whether the request carries a backend at all
		name    string
		refused bool
	}{
		{"absent", false, "", false},
		{"empty", true, "", false},
		{"vsm", true, "vsm", false},
		{"bm25", true, "bm25", true},
		{"BM25", true, "BM25", true},
		{"tfidf", true, "tfidf", true},
	} {
		t.Run(c.label, func(t *testing.T) {
			param, field := "", ""
			if c.present {
				param = "&backend=" + url.QueryEscape(c.name)
				field = fmt.Sprintf(`,"backend":%q`, c.name)
			}

			rec := serve(svc, http.MethodGet, "/v1/cuda/query?q="+url.QueryEscape(q)+param, nil)
			err := checkQuery(svc, rec, "cuda", c.name, q)
			if c.refused {
				err = sameError(rec, http.StatusBadRequest, fmt.Sprintf("vsm: unknown scoring backend: %q", c.name))
			}
			if err != nil {
				t.Errorf("query: %v", err)
			}

			// checkBatch holds a refused item to the query's error text,
			// and the item beside it still answers
			body := []byte(fmt.Sprintf(`{"queries":[{"advisor":"cuda","query":%q%s},{"advisor":"opencl","query":%q}]}`, q, field, q))
			rec = serve(svc, http.MethodPost, "/v1/batch", body)
			if err := checkBatch(svc, rec, body); err != nil {
				t.Errorf("batch: %v", err)
			}

			// checkAsk holds a refusal to the query's 400
			raw := "q=" + url.QueryEscape(q) + param
			rec = serve(svc, http.MethodGet, "/v1/ask?"+raw, nil)
			if !c.refused && rec.Code != http.StatusOK {
				t.Errorf("ask: status %d: %s", rec.Code, rec.Body)
			}
			if err := checkAsk(svc, rec, raw); err != nil {
				t.Errorf("ask: %v", err)
			}
		})
	}
	if rec := serve(svc, http.MethodGet, "/v1/backends", nil); rec.Code != http.StatusNotFound {
		t.Errorf("/v1/backends: status %d, want 404", rec.Code)
	}
}
