package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/nvvp"
	"repro/internal/obs"
)

// holdAdmission takes every worker and queue slot of a one-worker,
// one-waiter service and returns the function that gives them back.
func holdAdmission(t *testing.T, svc *Service) (release func()) {
	t.Helper()
	if err := svc.admit.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() { queued <- svc.admit.Acquire(context.Background()) }()
	for i := 0; svc.admit.Queued() == 0; i++ {
		if i == 1000 {
			t.Fatal("the waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	return func() {
		svc.admit.Release() // admits the waiter
		if err := <-queued; err != nil {
			t.Errorf("queued waiter: %v", err)
		}
		svc.admit.Release()
	}
}

// TestHitsBypassAdmission: a cache hit holds no admission slot and never
// queues, so with every worker and queue slot taken a cached query still
// answers, while an uncached one is shed with 429.
func TestHitsBypassAdmission(t *testing.T) {
	svc, ts := newTestService(t, Options{MaxInFlight: 1, MaxQueue: 1, Metrics: obs.NewRegistry()})
	const cached = "/v1/cuda/query?q=coalesce+global+memory+accesses"
	if code, body := get(t, ts.URL+cached); code != http.StatusOK {
		t.Fatalf("warming query: %d %s", code, body)
	}
	release := holdAdmission(t, svc)
	defer release()

	resp, err := http.Get(ts.URL + cached)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
		t.Errorf("cached query under overload: %d X-Cache %q, want 200 hit", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	resp, err = http.Get(ts.URL + "/v1/cuda/query?q=warp+divergence+in+control+flow")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Errorf("uncached query under overload: %d Retry-After %q, want 429 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

// TestReportSharesOneDeadline: a report's issues share the request's one
// deadline, running from its arrival, instead of each issue getting a fresh
// Timeout. With scoring slowed to 200 ms and a 300 ms timeout, the second
// missing issue runs out of budget and the report answers 503 within one
// timeout.
func TestReportSharesOneDeadline(t *testing.T) {
	inj := fault.New(1)
	inj.Set(fault.VSMScore, fault.Rule{Latency: 200 * time.Millisecond})
	const timeout = 300 * time.Millisecond
	svc, ts := newTestService(t, Options{Fault: inj, Timeout: timeout, Metrics: obs.NewRegistry()})
	start := time.Now()
	resp, err := http.Post(ts.URL+"/v1/cuda/report", "text/plain", bytes.NewReader(issuesReport(t, 3)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("3 slow issues under a %v timeout: %d after %v, want 503", timeout, resp.StatusCode, elapsed)
	}
	if slack := 200 * time.Millisecond; elapsed > timeout+slack {
		t.Errorf("report answered after %v, want within %v", elapsed, timeout+slack)
	}
	if got := svc.Stats().Timeouts; got != 1 {
		t.Errorf("timeouts %d, want 1 for the one request", got)
	}
}

// TestReportTakesOneAdmission: a sampled report whose issues all miss
// records one admission span, taken by the first miss and shared by the
// rest, and one score span per issue.
func TestReportTakesOneAdmission(t *testing.T) {
	tracer := obs.NewTracer(1.0, obs.NewTraceStore(16))
	svc, _ := newTestService(t, Options{Tracer: tracer, Metrics: obs.NewRegistry()})
	const issues = 3
	rec := serve(svc, http.MethodPost, "/v1/cuda/report", issuesReport(t, issues))
	if rec.Code != http.StatusOK {
		t.Fatalf("report %d %s", rec.Code, rec.Body)
	}
	tr, ok := tracer.Store().Get(rec.Header().Get("X-Trace-Id"))
	if !ok {
		t.Fatal("report trace not recorded")
	}
	counts := map[string]int{}
	var count func(obs.SpanJSON)
	count = func(s obs.SpanJSON) {
		counts[s.Name]++
		for _, c := range s.Children {
			count(c)
		}
	}
	count(tr.Root)
	if counts["admission"] != 1 || counts["score"] != issues {
		t.Errorf("%d admission and %d score spans, want 1 and %d (spans %v)", counts["admission"], counts["score"], issues, counts)
	}
}

// TestCachedQueryHitAllocations: a hit allocates only the query's terms
// and its cache key — no timer, channel, goroutine or admission.
func TestCachedQueryHitAllocations(t *testing.T) {
	svc, _ := newTestService(t, Options{Metrics: obs.NewRegistry()})
	ctx := context.Background()
	const q = "reduce instruction and memory latency"
	if _, _, err := svc.CachedQuery(ctx, "cuda", q); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, hit, err := svc.CachedQuery(ctx, "cuda", q); err != nil || !hit {
			t.Fatalf("hit=%v err=%v", hit, err)
		}
	})
	if allocs > 3 {
		t.Errorf("a cache hit costs %.1f allocations, want at most 3", allocs)
	}
}

// syncBuffer is a bytes.Buffer safe for the logger's concurrent writes.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// take returns what was written since the last take.
func (b *syncBuffer) take() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.buf.String()
	b.buf.Reset()
	return s
}

// TestRequestLogFailuresOnly: a successful request writes no log line; a
// failed one writes one carrying its status, path and trace ID.
func TestRequestLogFailuresOnly(t *testing.T) {
	var logs syncBuffer
	svc, _ := newTestService(t, Options{
		Logger:      slog.New(slog.NewTextHandler(&logs, nil)),
		MaxInFlight: 1,
		MaxQueue:    1,
		Metrics:     obs.NewRegistry(),
	})
	if rec := serve(svc, http.MethodGet, "/v1/cuda/query?q=memory+latency", nil); rec.Code != http.StatusOK {
		t.Fatalf("query %d %s", rec.Code, rec.Body)
	}
	if got := logs.take(); got != "" {
		t.Errorf("a 200 query logged %q", got)
	}
	check := func(path string, want int) {
		t.Helper()
		rec := serve(svc, http.MethodGet, path, nil)
		if rec.Code != want {
			t.Fatalf("%s: %d, want %d", path, rec.Code, want)
		}
		line := logs.take()
		u, _ := url.Parse(path)
		for _, field := range []string{
			"status=" + strconv.Itoa(want),
			"path=" + u.Path,
			"trace=" + rec.Header().Get("X-Trace-Id"),
		} {
			if !strings.Contains(line, field) {
				t.Errorf("%s: log %q lacks %q", path, line, field)
			}
		}
		if n := strings.Count(line, "\n"); n != 1 {
			t.Errorf("%s: %d log lines, want 1", path, n)
		}
	}
	check("/v1/fortran/query?q=memory", http.StatusNotFound)
	check("/v1/cuda/query", http.StatusBadRequest)
	release := holdAdmission(t, svc)
	check("/v1/cuda/query?q=shared+memory+bank+conflicts", http.StatusTooManyRequests)
	release()
}

// TestTimeoutsCountDeadlinesOnly: service_timeouts_total counts a lookup
// that ends on its deadline, in the admission queue as well as while its
// compute runs, and not one whose caller gave up.
func TestTimeoutsCountDeadlinesOnly(t *testing.T) {
	inj := fault.New(1)
	inj.Set(fault.VSMScore, fault.Rule{Latency: time.Nanosecond})
	parked, unpark := make(chan struct{}), make(chan struct{})
	var once sync.Once
	inj.SetSleep(func(time.Duration) {
		once.Do(func() {
			close(parked)
			<-unpark
		})
	})
	svc, _ := newTestService(t, Options{Fault: inj, Timeout: time.Minute, Metrics: obs.NewRegistry()})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := svc.CachedQuery(ctx, "cuda", "reduce global memory latency")
		done <- err
	}()
	<-parked // the miss is scoring
	cancel() // and its caller hangs up
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("hung-up caller: %v, want context.Canceled", err)
	}
	close(unpark)
	if got := svc.Stats().Timeouts; got != 0 {
		t.Errorf("a hung-up caller counted %d timeouts", got)
	}

	svc, _ = newTestService(t, Options{MaxInFlight: 1, MaxQueue: 1, Timeout: 10 * time.Millisecond, Metrics: obs.NewRegistry()})
	if err := svc.admit.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer svc.admit.Release()
	if _, _, err := svc.CachedQuery(context.Background(), "cuda", "memory latency"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline in the admission queue: %v, want context.DeadlineExceeded", err)
	}
	if got := svc.Stats().Timeouts; got != 1 {
		t.Errorf("a deadline spent queued counted %d timeouts, want 1", got)
	}
}

// TestQueryTooLong: a query of more than maxQueryTerms terms, or whose
// cache key exceeds maxQueryKeyBytes, is refused with 400 on every surface
// before it is scored or cached, and fails alone inside a batch.
func TestQueryTooLong(t *testing.T) {
	svc, ts := twoAdvisorService(t, Options{Metrics: obs.NewRegistry()})
	long := strings.Repeat("memory ", 2000)
	wide := strings.Repeat("supercalifragilisticexpialidocious ", 600) // 600 terms, a 20 KB key
	before := svc.cache.Len()
	for _, q := range []string{long, wide} {
		for _, path := range []string{"/v1/cuda/query?q=", "/v1/ask?q="} {
			if code, body := get(t, ts.URL+path+url.QueryEscape(q)); code != http.StatusBadRequest ||
				!strings.Contains(string(body), ErrQueryTooLong.Error()) {
				t.Fatalf("%s<%d bytes>: %d %s, want 400", path, len(q), code, body)
			}
		}
	}
	report := "=== R ===\n-- 1. Memory --\nOptimization: long\n" + long + "\n"
	if rec := serve(svc, http.MethodPost, "/v1/cuda/report", []byte(report)); rec.Code != http.StatusBadRequest {
		t.Fatalf("report with a 2,000-term issue: %d %s, want 400", rec.Code, rec.Body)
	}
	if after := svc.cache.Len(); after != before {
		t.Errorf("refused queries changed the cache from %d to %d entries", before, after)
	}

	batch, _ := json.Marshal(BatchRequest{Queries: []BatchItem{
		{Advisor: "cuda", Query: long},
		{Advisor: "cuda", Query: "memory coalescing"},
	}})
	rec := serve(svc, http.MethodPost, "/v1/batch", batch)
	var br BatchResponse
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &br) != nil {
		t.Fatalf("batch %d %s", rec.Code, rec.Body)
	}
	if br.Errors != 1 || !strings.Contains(br.Results[0].Error, ErrQueryTooLong.Error()) || br.Results[1].Error != "" {
		t.Errorf("batch with one over-long item: %+v", br)
	}

	// the largest query still accepted
	if rec := serve(svc, http.MethodGet, "/v1/cuda/query?q="+url.QueryEscape(strings.Repeat("memory ", maxQueryTerms)), nil); rec.Code != http.StatusOK {
		t.Errorf("a %d-term query: %d %s, want 200", maxQueryTerms, rec.Code, rec.Body)
	}
}

// TestBodiesCarryContentLength: query and report bodies are sent with
// their length, not chunked, even past net/http's 2 KB chunking threshold.
func TestBodiesCarryContentLength(t *testing.T) {
	_, ts := newTestService(t, Options{Metrics: obs.NewRegistry()})
	var report strings.Builder
	for _, program := range []string{"knnjoin", "trans"} {
		text, err := nvvp.Synthesize(program)
		if err != nil {
			t.Fatal(err)
		}
		report.WriteString(text)
	}
	for _, req := range []struct {
		method, path, body string
	}{
		{http.MethodGet, "/v1/cuda/query?q=reduce+instruction+and+memory+latency", ""},
		{http.MethodPost, "/v1/cuda/report", report.String()},
	} {
		for _, pass := range []string{"miss", "hit"} {
			r, err := http.NewRequest(req.method, ts.URL+req.path, strings.NewReader(req.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(r)
			if err != nil {
				t.Fatal(err)
			}
			var body bytes.Buffer
			_, _ = body.ReadFrom(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || len(resp.TransferEncoding) != 0 || resp.ContentLength != int64(body.Len()) {
				t.Errorf("%s %s (%s): %d, transfer encoding %v, Content-Length %d for a %d-byte body",
					req.method, req.path, pass, resp.StatusCode, resp.TransferEncoding, resp.ContentLength, body.Len())
			}
			if req.method == http.MethodPost && body.Len() <= 2048 {
				t.Fatalf("the report body has %d bytes, too few to test chunking", body.Len())
			}
		}
	}
}

// TestQueryParamMatchesParseQuery: the handler's query-string scan reads
// the value url.ParseQuery(raw).Get would, malformed pairs included.
func TestQueryParamMatchesParseQuery(t *testing.T) {
	for _, raw := range []string{
		"", "q", "q=", "q=a+b", "q=%41%42", "x=1&q=2&q=3", "&&q=1&", "q;=1&q=2",
		"q=a;b&q=c", "a=1;q=2", "q=%zz&q=ok", "%zz=1&q=ok", "%71=escaped&q=plain",
		"q=%", "q=a=b", "=v&q=1", "Q=upper&q=lower", "q=%E2%9C%93",
	} {
		want, _ := url.ParseQuery(raw)
		if got := queryParam(raw, "q"); got != want.Get("q") {
			t.Errorf("queryParam(%q) = %q, want %q", raw, got, want.Get("q"))
		}
	}
}
