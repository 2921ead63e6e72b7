package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// POST /v1/batch answers many queries in one request. Items are answered by
// a bounded worker pool (Options.BatchWorkers); each worker holds one
// admission slot at a time, so a batch cannot starve interactive queries —
// it competes for the same MaxInFlight budget, N items strong instead of
// N requests strong.

// BatchItem is one query in a BatchRequest. Advisor and Query are required;
// Backend defaults to the paper's VSM.
type BatchItem struct {
	Advisor string `json:"advisor"`
	Query   string `json:"query"`
	Backend string `json:"backend,omitempty"`
}

// BatchRequest is the body of POST /v1/batch.
type BatchRequest struct {
	Queries []BatchItem `json:"queries"`
}

// BatchItemResult is the answer to one BatchItem, at the same position in
// the response as its item in the request. Failed items carry Error and a
// zero Count; one bad item never fails the rest of the batch. TraceID is
// per-item — each item's retrieval records its own span tree, so a slow
// item inside a batch is individually attributable on /tracez.
type BatchItemResult struct {
	Advisor string   `json:"advisor"`
	Query   string   `json:"query"`
	Backend string   `json:"backend,omitempty"`
	Count   int      `json:"count"`
	Answers []Answer `json:"answers,omitempty"`
	Cache   string   `json:"cache,omitempty"` // "hit" or "miss"
	Error   string   `json:"error,omitempty"`
	TraceID string   `json:"trace_id,omitempty"`
}

// BatchResponse is the body of POST /v1/batch. Count is len(Results);
// Errors counts the items that failed.
type BatchResponse struct {
	Count   int               `json:"count"`
	Errors  int               `json:"errors"`
	Results []BatchItemResult `json:"results"`
	TraceID string            `json:"trace_id,omitempty"`
}

// Batch answers every item through the cache and admission control, fanning
// out over min(BatchWorkers, len(items)) workers. Results keep request
// order. Item failures (unknown advisor, unknown backend, empty query,
// overload, timeout) are recorded per item, never returned as an error.
//
// The batch must finish within Options.Timeout, or by ctx's deadline when
// ctx carries one.
func (s *Service) Batch(ctx context.Context, items []BatchItem) []BatchItemResult {
	return s.batch(ctx, time.Now().Add(remainingBudget(ctx, s.opts.Timeout)), items)
}

// batch is Batch with the whole batch's deadline explicit; no timer runs
// until an item misses the cache.
func (s *Service) batch(ctx context.Context, deadline time.Time, items []BatchItem) []BatchItemResult {
	parent := obs.SpanFrom(ctx)
	results := make([]BatchItemResult, len(items))
	workers := s.opts.BatchWorkers
	if workers > len(items) {
		workers = len(items)
	}
	if workers < 1 {
		workers = 1
	}
	// fair-share the remaining request budget across scheduling waves: item
	// 64 of a big batch gets the same slice as item 1 instead of inheriting
	// whatever the early items left over (see batchShare)
	share := batchShare(time.Until(deadline), len(items), workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				results[i] = s.batchItem(ctx, parent, i, items[i], deadline, share)
			}
		}()
	}
	wg.Wait()
	return results
}

// batchItem answers one batch item under its own trace ID, span, and time
// share, so each item is individually attributable in traces and responses
// and cannot consume the budget of the items behind it.
func (s *Service) batchItem(ctx context.Context, parent *obs.Span, i int, item BatchItem, deadline time.Time, share time.Duration) BatchItemResult {
	res := BatchItemResult{Advisor: item.Advisor, Query: item.Query, Backend: item.Backend, TraceID: obs.NewTraceID()}
	span := parent.StartChild("batch.item")
	defer span.Finish()
	span.SetAttrInt("index", i)
	span.SetAttr("advisor", item.Advisor)
	if span != nil {
		ctx = obs.ContextWithSpan(ctx, span)
	}
	if strings.TrimSpace(item.Query) == "" {
		res.Error = "empty query"
		span.SetAttr("outcome", "error")
		return res
	}
	// the item's clock starts when a worker picks it up, not when the batch
	// arrived; the batch's deadline still caps it
	l := lease{deadline: time.Now().Add(share)}
	if deadline.Before(l.deadline) {
		l.deadline = deadline
	}
	answers, hit, err := s.cachedQuery(ctx, &l, item.Advisor, item.Backend, item.Query)
	l.release(s)
	if err != nil {
		res.Error = err.Error()
		span.SetAttr("outcome", "error")
		return res
	}
	res.Count = len(answers)
	res.Answers = toAnswers(answers)
	if hit {
		res.Cache = "hit"
	} else {
		res.Cache = "miss"
	}
	span.SetAttr("cache", res.Cache)
	return res
}

// handleBatch decodes, bounds, and answers POST /v1/batch.
func (s *Service) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, s.opts.MaxBodySize+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	if int64(len(body)) > s.opts.MaxBodySize {
		writeError(w, http.StatusRequestEntityTooLarge, "batch exceeds %d bytes", s.opts.MaxBodySize)
		return
	}
	var req BatchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "could not parse batch: %v", err)
		return
	}
	if len(req.Queries) == 0 {
		writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(req.Queries) > s.opts.MaxBatch {
		writeError(w, http.StatusBadRequest, "batch of %d exceeds limit %d", len(req.Queries), s.opts.MaxBatch)
		return
	}
	ex := w.(*exchange)
	start := time.Now()
	// the whole batch runs inside one request budget, from the request's
	// arrival; batch splits it into per-wave item shares
	results := s.batch(r.Context(), ex.start.Add(s.opts.Timeout), req.Queries)
	s.stats.recordBatch(time.Since(start), len(results))
	nerr := 0
	for i := range results {
		if results[i].Error != "" {
			nerr++
		}
	}
	writeJSON(w, http.StatusOK, BatchResponse{
		Count:   len(results),
		Errors:  nerr,
		Results: results,
		TraceID: ex.traceID,
	})
}
