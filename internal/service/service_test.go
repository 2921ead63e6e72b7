package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/nlp"
	"repro/internal/nvvp"
	"repro/internal/obs"
)

var (
	e2eOnce sync.Once
	e2eAdv  *core.Advisor

	// traceIDRe strips the per-request trace_id field when tests compare
	// response bodies for byte-identity across repeated queries.
	traceIDRe = regexp.MustCompile(`,"trace_id":"[^"]*"`)
)

// e2eAdvisor builds one moderately sized CUDA advisor for the whole test
// package (Stage I over the corpus is the expensive part).
func e2eAdvisor(t testing.TB) *core.Advisor {
	t.Helper()
	e2eOnce.Do(func() {
		g := corpus.GenerateSized(corpus.CUDA, 150, 0.3, 7)
		e2eAdv = core.New().BuildFromSentences(g.Doc, g.Sentences)
	})
	return e2eAdv
}

func newTestService(t testing.TB, opts Options) (*Service, *httptest.Server) {
	t.Helper()
	reg := NewRegistry()
	reg.Add("cuda", e2eAdvisor(t))
	svc := New(reg, opts)
	ts := httptest.NewServer(svc)
	t.Cleanup(ts.Close)
	return svc, ts
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func TestEndpoints(t *testing.T) {
	_, ts := newTestService(t, Options{})

	t.Run("healthz", func(t *testing.T) {
		code, body := get(t, ts.URL+"/healthz")
		if code != 200 || !strings.Contains(string(body), "ok") {
			t.Errorf("healthz %d %q", code, body)
		}
	})
	t.Run("readyz", func(t *testing.T) {
		code, _ := get(t, ts.URL+"/readyz")
		if code != 200 {
			t.Errorf("readyz %d, want 200 with populated registry", code)
		}
	})
	t.Run("advisors", func(t *testing.T) {
		code, body := get(t, ts.URL+"/v1/advisors")
		if code != 200 {
			t.Fatalf("advisors %d", code)
		}
		var infos []AdvisorInfo
		if err := json.Unmarshal(body, &infos); err != nil {
			t.Fatal(err)
		}
		if len(infos) != 1 || infos[0].Name != "cuda" || infos[0].Rules == 0 ||
			infos[0].Sentences != 150 || infos[0].BuiltAt.IsZero() {
			t.Errorf("advisors %+v", infos)
		}
	})
	t.Run("backends", func(t *testing.T) {
		code, body := get(t, ts.URL+"/v1/backends")
		if code != 200 || strings.TrimSpace(string(body)) != `{"default":"vsm","backends":["vsm","bm25"]}` {
			t.Errorf("backends %d %s", code, body)
		}
	})
	t.Run("rules", func(t *testing.T) {
		code, body := get(t, ts.URL+"/v1/cuda/rules")
		if code != 200 {
			t.Fatalf("rules %d", code)
		}
		var resp RulesResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Advisor != "cuda" || resp.Count == 0 || len(resp.Rules) != resp.Count {
			t.Errorf("rules %+v", resp)
		}
		for _, r := range resp.Rules[:1] {
			if r.Text == "" || r.Selector == "" {
				t.Errorf("rule %+v missing fields", r)
			}
		}
	})
	t.Run("query", func(t *testing.T) {
		code, body := get(t, ts.URL+"/v1/cuda/query?q=how+to+reduce+memory+latency")
		if code != 200 {
			t.Fatalf("query %d %s", code, body)
		}
		var resp QueryResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Advisor != "cuda" || resp.Count != len(resp.Answers) {
			t.Errorf("query %+v", resp)
		}
	})
	t.Run("query cache header", func(t *testing.T) {
		resp1, err := http.Get(ts.URL + "/v1/cuda/query?q=warp+divergence+in+control+flow")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp1.Body)
		resp1.Body.Close()
		resp2, err := http.Get(ts.URL + "/v1/cuda/query?q=warp+divergence+in+control+flow")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp2.Body)
		resp2.Body.Close()
		if resp1.Header.Get("X-Cache") != "miss" || resp2.Header.Get("X-Cache") != "hit" {
			t.Errorf("X-Cache %q then %q, want miss then hit",
				resp1.Header.Get("X-Cache"), resp2.Header.Get("X-Cache"))
		}
	})
	t.Run("query missing q", func(t *testing.T) {
		code, body := get(t, ts.URL+"/v1/cuda/query")
		if code != http.StatusBadRequest || !strings.Contains(string(body), "missing query") {
			t.Errorf("no-q: %d %s", code, body)
		}
	})
	t.Run("unknown advisor", func(t *testing.T) {
		for _, path := range []string{"/v1/fortran/rules", "/v1/fortran/query?q=x"} {
			if code, _ := get(t, ts.URL+path); code != http.StatusNotFound {
				t.Errorf("%s: %d, want 404", path, code)
			}
		}
	})
	t.Run("report", func(t *testing.T) {
		text, err := nvvp.Synthesize("norm")
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/cuda/report", "text/plain", strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("report %d %s", resp.StatusCode, body)
		}
		var rr ReportResponse
		if err := json.Unmarshal(body, &rr); err != nil {
			t.Fatal(err)
		}
		if rr.Advisor != "cuda" || len(rr.Issues) == 0 {
			t.Errorf("report %+v", rr)
		}
	})
	t.Run("report bad body", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/cuda/report", "text/plain", strings.NewReader("not a report"))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad report %d, want 400", resp.StatusCode)
		}
	})
	t.Run("report metrics json", func(t *testing.T) {
		// a JSON metrics snapshot with divergent branches and poor
		// coalescing: the report endpoint's other input format
		snap := `{"program":"knnjoin","kernel":"k","warp_execution_efficiency":0.4,"occupancy":0.9,` +
			`"global_load_efficiency":0.3,"branch_divergence":0.5,"dram_utilization":0.2,` +
			`"issue_slot_utilization":0.5,"low_throughput_inst_fraction":0.1,"transfer_compute_ratio":0.1}`
		resp, err := http.Post(ts.URL+"/v1/cuda/report", "application/json", strings.NewReader(snap))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var rr ReportResponse
		if resp.StatusCode != 200 || json.Unmarshal(body, &rr) != nil || len(rr.Issues) == 0 {
			t.Fatalf("metrics report %d %s", resp.StatusCode, body)
		}
		resp, err = http.Post(ts.URL+"/v1/cuda/report", "application/json", strings.NewReader(`{"occupancy":7}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("out-of-range metrics %d, want 400", resp.StatusCode)
		}
	})
	t.Run("query unknown backend", func(t *testing.T) {
		if code, body := get(t, ts.URL+"/v1/cuda/query?q=memory&backend=tfidf2"); code != http.StatusBadRequest {
			t.Errorf("unknown backend %d %s, want 400", code, body)
		}
	})
	t.Run("admin reload without lifecycle", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/admin/reload", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotImplemented {
			t.Errorf("reload without lifecycle %d, want 501", resp.StatusCode)
		}
	})
	t.Run("statsz", func(t *testing.T) {
		code, body := get(t, ts.URL+"/statsz")
		if code != 200 {
			t.Fatalf("statsz %d", code)
		}
		var snap StatsSnapshot
		if err := json.Unmarshal(body, &snap); err != nil {
			t.Fatal(err)
		}
		if snap.Requests == 0 || snap.Advisors != 1 {
			t.Errorf("statsz %+v", snap)
		}
	})
}

// TestConcurrentHammer drives the JSON API with 32 goroutines mixing
// repeated and unique queries, asserting: no 5xx, cache hits observed, and
// byte-identical bodies for identical queries. Run under -race in CI.
func TestConcurrentHammer(t *testing.T) {
	svc, ts := newTestService(t, Options{CacheSize: 256, MaxInFlight: 16, Timeout: 10 * time.Second})

	repeated := []string{
		"how to reduce global memory latency",
		"avoid divergent warps in control flow",
		"improve occupancy of the kernel",
		"coalesce global memory accesses",
	}
	const (
		goroutines = 32
		perG       = 30
	)
	var mu sync.Mutex
	bodies := map[string]string{} // query -> first body seen
	var badStatus []string

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: goroutines}}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				var q string
				if i%3 == 0 { // a third unique, the rest repeated
					q = fmt.Sprintf("unique question %d from goroutine %d about latency", i, g)
				} else {
					q = repeated[(g+i)%len(repeated)]
				}
				resp, err := client.Get(ts.URL + "/v1/cuda/query?q=" + strings.ReplaceAll(q, " ", "+"))
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				// the trace_id field is per-request by design; everything
				// else in the body must stay byte-identical across repeats
				norm := traceIDRe.ReplaceAllString(string(body), "")
				mu.Lock()
				if resp.StatusCode >= 500 {
					badStatus = append(badStatus, fmt.Sprintf("%d for %q", resp.StatusCode, q))
				}
				if prev, ok := bodies[q]; ok {
					if prev != norm {
						t.Errorf("response for %q changed between requests", q)
					}
				} else {
					bodies[q] = norm
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()

	if len(badStatus) > 0 {
		t.Fatalf("5xx responses under load: %v", badStatus[:min(5, len(badStatus))])
	}
	snap := svc.Stats()
	if snap.CacheHits == 0 {
		t.Error("no cache hits after hammering repeated queries")
	}
	if snap.CacheMisses == 0 {
		t.Error("no cache misses recorded")
	}
	if snap.Requests < goroutines*perG {
		t.Errorf("requests %d < %d issued", snap.Requests, goroutines*perG)
	}
	t.Logf("hammer: %d requests, %d hits, %d misses, %d evictions, p50 %dµs p99 %dµs",
		snap.Requests, snap.CacheHits, snap.CacheMisses, snap.Evictions,
		snap.QueryP50Micros, snap.QueryP99Micros)
}

func TestAdmissionRejectsOverload(t *testing.T) {
	svc, ts := newTestService(t, Options{MaxInFlight: 1, MaxQueue: 1})
	// occupy the only worker slot directly, then saturate the queue
	if err := svc.admit.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		queued <- svc.admit.Acquire(ctx)
	}()
	for i := 0; svc.admit.Queued() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	// worker busy + queue full -> the HTTP path must shed with 429
	resp, err := http.Get(ts.URL + "/v1/cuda/query?q=memory+latency")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded query: %d %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}
	svc.admit.Release() // admit the queued waiter
	if err := <-queued; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}
	svc.admit.Release()
	if svc.Stats().Rejected == 0 {
		t.Error("rejection not counted in stats")
	}
}

func TestQueryTimeout(t *testing.T) {
	svc, _ := newTestService(t, Options{MaxInFlight: 1, MaxQueue: 1, Timeout: 10 * time.Millisecond})
	// hold the worker slot so the query waits in the queue past its deadline
	if err := svc.admit.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer svc.admit.Release()
	_, _, err := svc.CachedQuery(context.Background(), "cuda", "", "memory latency")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline exceeded, got %v", err)
	}
}

func TestReloadInvalidatesCache(t *testing.T) {
	svc, ts := newTestService(t, Options{})
	q := "/v1/cuda/query?q=shared+memory+bank+conflicts"
	get(t, ts.URL+q) // populate
	resp, _ := http.Get(ts.URL + q)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.Header.Get("X-Cache") != "hit" {
		t.Fatal("expected a cache hit before reload")
	}
	// hot-swap with a differently seeded guide
	g := corpus.GenerateSized(corpus.CUDA, 150, 0.3, 8)
	next := core.New().BuildFromSentences(g.Doc, g.Sentences)
	diff := svc.Reload("cuda", next)
	if len(diff.Added)+len(diff.Removed) == 0 {
		t.Log("note: reload produced no rule churn (unusual but not wrong)")
	}
	resp2, _ := http.Get(ts.URL + q)
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.Header.Get("X-Cache") != "miss" {
		t.Error("cache must miss after hot-swap invalidation")
	}
	if got, _ := svc.Registry().Get("cuda"); got != next {
		t.Error("registry did not swap")
	}
}

// TestReloadDuringMissNeverCachesStaleAnswers pins the reload race: a cache
// miss still scoring with the old advisor when Reload swaps the advisor and
// invalidates the cache must not leave the old answers cached. The
// vsm.score fault point's latency hook parks the miss mid-retrieval while
// the reload runs, so the interleaving is deterministic.
func TestReloadDuringMissNeverCachesStaleAnswers(t *testing.T) {
	const q = "reduce global memory latency"
	old := e2eAdvisor(t)
	g := corpus.GenerateSized(corpus.CUDA, 150, 0.3, 8)
	next := core.New().BuildFromSentences(g.Doc, g.Sentences)
	want := next.Query(q)
	if sameAnswerBits(old.Query(q), want) {
		t.Fatal("precondition: old and new advisors answer alike")
	}

	inj := fault.New(1)
	inj.Set(fault.VSMScore, fault.Rule{Latency: time.Nanosecond})
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	inj.SetSleep(func(time.Duration) {
		once.Do(func() {
			close(parked)
			<-release
		})
	})
	reg := NewRegistry()
	reg.Add("cuda", old)
	svc := New(reg, Options{Fault: inj, Timeout: time.Minute, Metrics: obs.NewRegistry()})

	done := make(chan error, 1)
	go func() {
		_, _, err := svc.CachedQuery(context.Background(), "cuda", "", q)
		done <- err
	}()
	<-parked // the miss is scoring
	svc.Reload("cuda", next)
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	got, hit, err := svc.CachedQuery(context.Background(), "cuda", "", q)
	if err != nil {
		t.Fatal(err)
	}
	if hit || !sameAnswerBits(got, want) {
		t.Fatalf("after reload: hit=%v, answers %v, want the new advisor's %v", hit, got, want)
	}
}

// TestScoreFaultFailsQuery: the vsm.score fault point is drawn once per
// miss. An injected error fails the query with an error wrapping
// fault.ErrInjected, counts toward the advisor's breaker and is never
// cached: once the faults stop, the same query is a miss and then a hit,
// both bit-identical to a fault-free answer.
func TestScoreFaultFailsQuery(t *testing.T) {
	g := corpus.GenerateSized(corpus.CUDA, 150, 0.3, 7)
	adv := core.New().BuildFromSentences(g.Doc, g.Sentences)
	inj := fault.New(1)
	reg := NewRegistry()
	reg.Add("cuda", adv)
	svc := New(reg, Options{Fault: inj, Metrics: obs.NewRegistry(), BreakerThreshold: 1})
	ctx := context.Background()
	const q = "reduce global memory latency"
	want, err := adv.Retrieve(ctx, nlp.QueryTerms(q), adv.QueryOpts("bm25"))
	if err != nil || len(want) == 0 {
		t.Fatalf("fault-free answers: %d, err %v", len(want), err)
	}

	inj.Set(fault.VSMScore, fault.Rule{ErrProb: 1})
	if _, _, err := svc.CachedQuery(ctx, "cuda", "bm25", q); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("scoring fault: err %v, want an injected fault", err)
	}
	if got := svc.breakers.get("cuda").State(); got != BreakerOpen {
		t.Fatalf("breaker %v after a scoring fault at threshold 1, want open", got)
	}

	inj.Reset()
	for _, wantHit := range []bool{false, true} {
		answers, hit, err := svc.CachedQuery(ctx, "cuda", "bm25", q)
		if err != nil || hit != wantHit || !sameAnswerBits(answers, want) {
			t.Fatalf("recovered: hit=%v (want %v) err=%v, answers differ: %v", hit, wantHit, err, !sameAnswerBits(answers, want))
		}
	}
	// the deprecated four-result form answers the same, with no failures
	if answers, hit, failed, err := svc.CachedQueryFull(ctx, "cuda", "bm25", q); err != nil || !hit || failed != 0 || !sameAnswerBits(answers, want) {
		t.Fatalf("CachedQueryFull: hit=%v failed=%d err=%v", hit, failed, err)
	}
}

// sameAnswerBits reports whether two answer lists name the same sentences
// with Float64bits-equal scores, in order.
func sameAnswerBits(a, b []core.Answer) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Sentence.Index != b[i].Sentence.Index || a[i].Sentence.Text != b[i].Sentence.Text ||
			math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

func TestDrainFlipsReadyz(t *testing.T) {
	svc, ts := newTestService(t, Options{})
	if code, _ := get(t, ts.URL+"/readyz"); code != 200 {
		t.Fatalf("readyz %d before drain", code)
	}
	svc.BeginDrain()
	if code, _ := get(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("readyz %d after BeginDrain, want 503", code)
	}
	// draining sheds new LB traffic but keeps serving requests already routed
	if code, _ := get(t, ts.URL+"/v1/cuda/query?q=memory+latency"); code != 200 {
		t.Errorf("query during drain: %d, want 200", code)
	}
	if code, _ := get(t, ts.URL+"/healthz"); code != 200 {
		t.Errorf("healthz during drain: %d (process is still alive)", code)
	}
}

func TestReadyzEmptyRegistry(t *testing.T) {
	svc := New(NewRegistry(), Options{})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	if code, _ := get(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("empty registry readyz %d, want 503", code)
	}
}

// collectSpanNames flattens a span tree into the set of span names it holds.
func collectSpanNames(s obs.SpanJSON, into map[string]bool) {
	into[s.Name] = true
	for _, c := range s.Children {
		collectSpanNames(c, into)
	}
}

// TestQueryTraceTree is the observability acceptance path: with sampling at
// 1.0, a single /v1/query yields a trace ID whose span tree — retrieved from
// /tracez — contains the admission, annotate, cache, and score stages, and
// /metricz reconciles with /statsz.
func TestQueryTraceTree(t *testing.T) {
	metrics := obs.NewRegistry()
	tracer := obs.NewTracer(1.0, obs.NewTraceStore(16))
	_, ts := newTestService(t, Options{Tracer: tracer, Metrics: metrics})

	resp, err := http.Get(ts.URL + "/v1/cuda/query?q=coalesce+global+memory+accesses")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("query %d %s", resp.StatusCode, body)
	}
	headerID := resp.Header.Get("X-Trace-Id")
	if headerID == "" {
		t.Fatal("missing X-Trace-Id header")
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.TraceID != headerID {
		t.Errorf("trace_id %q != X-Trace-Id %q", qr.TraceID, headerID)
	}

	code, tbody := get(t, ts.URL+"/tracez?id="+headerID)
	if code != 200 {
		t.Fatalf("tracez %d %s", code, tbody)
	}
	var tr obs.TraceJSON
	if err := json.Unmarshal(tbody, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.ID != headerID {
		t.Errorf("trace id %q, want %q", tr.ID, headerID)
	}
	names := map[string]bool{}
	collectSpanNames(tr.Root, names)
	for _, want := range []string{"admission", "annotate", "cache", "score"} {
		if !names[want] {
			t.Errorf("trace tree missing %q span (have %v)", want, names)
		}
	}

	// a second identical query is a cache hit: traced, but without a score
	// span under cache
	resp2, err := http.Get(ts.URL + "/v1/cuda/query?q=coalesce+global+memory+accesses")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	id2 := resp2.Header.Get("X-Trace-Id")
	if id2 == headerID {
		t.Error("trace IDs not unique across requests")
	}
	code, tbody = get(t, ts.URL+"/tracez?id="+id2)
	if code != 200 {
		t.Fatalf("tracez (hit) %d %s", code, tbody)
	}
	var tr2 obs.TraceJSON
	if err := json.Unmarshal(tbody, &tr2); err != nil {
		t.Fatal(err)
	}
	hitNames := map[string]bool{}
	collectSpanNames(tr2.Root, hitNames)
	if hitNames["score"] {
		t.Error("cache-hit trace contains a score span; retrieval should have been skipped")
	}

	// /metricz must agree with /statsz: the service_* counters are the same
	// atomics behind both views
	code, mbody := get(t, ts.URL+"/metricz")
	if code != 200 {
		t.Fatalf("metricz %d", code)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(mbody, &snap); err != nil {
		t.Fatal(err)
	}
	code, sbody := get(t, ts.URL+"/statsz")
	if code != 200 {
		t.Fatalf("statsz %d", code)
	}
	var stats StatsSnapshot
	if err := json.Unmarshal(sbody, &stats); err != nil {
		t.Fatal(err)
	}
	// statsz was read after metricz, so its request counter may be ahead by
	// the /statsz request itself — but hits/misses only move on /v1 queries
	if got := snap.Counters["service_cache_hits_total"]; got != stats.CacheHits {
		t.Errorf("metricz hits %d != statsz hits %d", got, stats.CacheHits)
	}
	if got := snap.Counters["service_cache_misses_total"]; got != stats.CacheMisses {
		t.Errorf("metricz misses %d != statsz misses %d", got, stats.CacheMisses)
	}
	qh, ok := snap.Histograms["service_query_latency_micros"]
	if !ok {
		t.Fatal("metricz missing service_query_latency_micros histogram")
	}
	if qh.Count != 2 {
		t.Errorf("query histogram count %d, want 2", qh.Count)
	}
}
