package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/lifecycle"
	"repro/internal/nlp"
	"repro/internal/obs"
)

// TestServeScoreFaultHammer is the scoring race hammer: a serve stack driven
// by concurrent cache-missing queries while admin reloads hot-swap the
// advisor underneath and the vsm.score fault point fails individual
// queries. Run with -race in CI. The contract:
//
//   - every response is well-formed JSON, never a panic or a torn body;
//   - a scoring fault fails its query with a 5xx carrying an error, and a
//     query that scores answers 200 with no error;
//   - failures are never cached: after faults stop, the same queries
//     return byte-identical answers to a fault-free control.
func TestServeScoreFaultHammer(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	queries := []string{
		"reduce global memory latency",
		"avoid divergent warps",
		"improve occupancy",
	}

	// fault-free control over the same source: ground truth bodies
	control, _, _, err := buildServeHandler(core.New(), serveConfig{
		primaryName: "cuda",
		cacheSize:   256,
		maxInflight: 64,
		timeout:     5 * time.Second,
		metrics:     obs.NewRegistry(),
		sources:     []lifecycle.Source{testSource(t, "cuda", 150, 11)},
	}, logger)
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(control)
	defer cts.Close()
	want := make(map[string]string, len(queries))
	for _, q := range queries {
		p := queryPath(q)
		code, body := httpGet(t, cts.URL+p)
		if code != 200 {
			t.Fatalf("control %s: %d %s", p, code, body)
		}
		want[p] = scrubTrace(body)
	}

	inj := fault.New(7)
	handler, svc, _, err := buildServeHandler(core.New(), serveConfig{
		primaryName: "cuda",
		cacheSize:   256,
		maxInflight: 64,
		timeout:     5 * time.Second,
		metrics:     obs.NewRegistry(),
		faults:      inj,
		retries:     0,
		backoff:     time.Millisecond,
		sources:     []lifecycle.Source{testSource(t, "cuda", 150, 11)},
	}, logger)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(handler)
	defer ts.Close()

	if got := svc.Stats().Advisors; got == 0 {
		t.Fatal("no advisors registered")
	}

	// every cache miss draws vsm.score once: at 35% about a third of the
	// hammer queries fail
	inj.Set(fault.VSMScore, fault.Rule{ErrProb: 0.35})

	const (
		workers = 6
		perG    = 40
	)
	// words[g] and words[workers+i] make every hammer query unique in the
	// guide's own words: a number or a made-up word would be dropped by
	// Stage II and by the cache key, and the queries would hit
	adv, ok := svc.Registry().Get("cuda")
	if !ok {
		t.Fatal("no cuda advisor")
	}
	words := guideWords(t, workers+perG, adv)
	var (
		healthy   atomic.Int64
		failures  atomic.Int64 // 5xx
		reloads   atomic.Int64
		anomalyMu sync.Mutex
		anomalies []string
	)
	anomaly := func(format string, args ...any) {
		anomalyMu.Lock()
		defer anomalyMu.Unlock()
		if len(anomalies) < 10 {
			anomalies = append(anomalies, fmt.Sprintf(format, args...))
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if g == 0 && i%8 == 3 {
					// hot-swap the advisor mid-storm: rebuild + atomic swap
					// must never tear a concurrent query
					resp, err := http.Post(ts.URL+"/v1/admin/reload?advisor=cuda", "", nil)
					if err != nil {
						anomaly("reload: %v", err)
						continue
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					reloads.Add(1)
					continue
				}
				// unique q per request defeats the cache, forcing a fresh
				// score that draws the fault point
				q := fmt.Sprintf("%s %s %s", queries[i%len(queries)], words[g], words[workers+i])
				resp, err := http.Get(ts.URL + queryPath(q))
				if err != nil {
					anomaly("get: %v", err)
					continue
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					anomaly("read: %v", err)
					continue
				}
				var qr struct {
					Count   *int   `json:"count"`
					TraceID string `json:"trace_id"`
					Error   string `json:"error"`
				}
				if err := json.Unmarshal(body, &qr); err != nil {
					anomaly("torn response %d: %s", resp.StatusCode, body)
					continue
				}
				switch {
				case resp.StatusCode == 200 && qr.Error == "" && qr.Count != nil:
					healthy.Add(1)
				case resp.StatusCode >= 500 && strings.Contains(qr.Error, fault.ErrInjected.Error()):
					failures.Add(1)
				default:
					anomaly("unexpected status %d: %s", resp.StatusCode, body)
				}
			}
		}(g)
	}
	wg.Wait()
	if len(anomalies) != 0 {
		t.Fatalf("hammer anomalies: %v", anomalies)
	}
	if failures.Load() == 0 || healthy.Load() == 0 {
		t.Fatalf("%d healthy, %d 5xx under a 35%% scoring fault storm — want both; scoring fault injection not wired?",
			healthy.Load(), failures.Load())
	}
	if reloads.Load() == 0 {
		t.Fatal("no reloads completed")
	}
	// every hammer query is unique, so each one missed the cache: this is a
	// miss hammer, not a hit hammer
	var st struct {
		CacheMisses int64 `json:"cache_misses"`
	}
	if code, body := httpGet(t, ts.URL+"/statsz"); code != 200 || json.Unmarshal(body, &st) != nil {
		t.Fatalf("statsz: %d %s", code, body)
	}
	if queried := healthy.Load() + failures.Load(); st.CacheMisses < queried {
		t.Fatalf("%d cache misses for %d unique hammer queries", st.CacheMisses, queried)
	}
	t.Logf("hammer: %d healthy, %d 5xx, %d reloads, %d misses", healthy.Load(), failures.Load(), reloads.Load(), st.CacheMisses)

	// a query whose scoring always fails is a clean 5xx, never an empty 200
	inj.Set(fault.VSMScore, fault.Rule{ErrProb: 1})
	code, body := httpGet(t, ts.URL+"/v1/cuda/query?q=total+score+loss")
	if code < 500 {
		t.Fatalf("query with scoring failing: %d %s, want 5xx", code, body)
	}

	// recovery: faults off, the exact control queries must come back
	// byte-identical — proving no failure was cached during the storm and
	// no torn state survived the reload races
	inj.Reset()
	for _, q := range queries {
		p := queryPath(q)
		code, body := httpGet(t, ts.URL+p)
		if code != 200 {
			t.Fatalf("post-storm %s: %d %s", p, code, body)
		}
		if got := scrubTrace(body); got != want[p] {
			t.Errorf("post-storm %s diverged from fault-free control:\n got %s\nwant %s", p, got, want[p])
		}
	}
}

// guideWords returns n lowercase words of the first advisor's rules, each
// normalizing to one term that every advisor's rules use and no two to the
// same term, so queries that differ in them key apart on every advisor.
func guideWords(t testing.TB, n int, advs ...*core.Advisor) []string {
	t.Helper()
	uses := map[string]int{} // advisors whose rules use the term
	for _, a := range advs {
		seen := map[string]bool{}
		for _, r := range a.Rules() {
			for _, term := range nlp.QueryTerms(r.Text) {
				if !seen[term] {
					seen[term] = true
					uses[term]++
				}
			}
		}
	}
	var out []string
	for _, r := range advs[0].Rules() {
		for _, w := range strings.Fields(strings.ToLower(r.Text)) {
			w = strings.Trim(w, ".,;:()")
			terms := nlp.QueryTerms(w)
			if strings.Trim(w, "abcdefghijklmnopqrstuvwxyz") != "" || len(terms) != 1 || uses[terms[0]] != len(advs) {
				continue
			}
			uses[terms[0]] = 0 // taken
			if out = append(out, w); len(out) == n {
				return out
			}
		}
	}
	t.Fatalf("the guides share %d usable words, want %d", len(out), n)
	return nil
}

// queryPath is the query path of q on the cuda advisor.
func queryPath(q string) string {
	return "/v1/cuda/query?q=" + url.QueryEscape(q)
}
