package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/lifecycle"
	"repro/internal/obs"
	"repro/internal/service"
)

// shardedSource is testSource with a shard count: the built advisor carries
// a ShardedIndex, so the serving stack exercises the fan-out/merge path.
func shardedSource(t testing.TB, name string, size int, seed int64, shards int) lifecycle.Source {
	t.Helper()
	reg, err := corpusRegister(name)
	if err != nil {
		t.Fatal(err)
	}
	return lifecycle.Source{
		Name:        name,
		Fingerprint: func() (string, error) { return fmt.Sprintf("sharded:%s:%d:%d:%d", name, size, seed, shards), nil },
		Build: func(ctx context.Context) (*core.Advisor, error) {
			g := corpus.GenerateSized(reg, size, 0.3, seed)
			return core.New(core.WithShards(shards)).BuildFromSentences(g.Doc, g.Sentences), nil
		},
	}
}

// TestServeShardedHammer is the sharded-retrieval race hammer from
// DESIGN.md §13: a serve stack whose advisor holds a 4-shard index, driven
// by concurrent cache-missing queries while admin reloads hot-swap the
// advisor underneath and the vsm.score fault point fails individual shards.
// Run with -race in CI. The contract:
//
//   - every response is well-formed JSON, never a panic or a torn merge;
//   - a losing shard degrades the response to HTTP 200 with shards_failed
//     in 1..shards-1 and answers drawn from the surviving shards only;
//   - partial results are never cached: after faults stop, the same
//     queries return complete, byte-identical answers;
//   - all shards failing is a clean 5xx, not an empty 200.
//
// A third of the hammer requests carry ?backend=bm25, so both weightings
// of the shared partitioned engine race side by side under -race and under
// shard faults; after recovery both backends must be byte-identical to the
// fault-free control.
func TestServeShardedHammer(t *testing.T) {
	const nShards = 4
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	queries := []string{
		"reduce global memory latency",
		"avoid divergent warps",
		"improve occupancy",
	}

	// fault-free control over the same sharded source: ground truth bodies
	control, _, _, err := buildServeHandler(core.New(core.WithShards(nShards)), serveConfig{
		primaryName: "cuda",
		cacheSize:   256,
		maxInflight: 64,
		timeout:     5 * time.Second,
		metrics:     obs.NewRegistry(),
		sources:     []lifecycle.Source{shardedSource(t, "cuda", 150, 11, nShards)},
	}, logger)
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(control)
	defer cts.Close()
	want := make(map[string]string, 2*len(queries))
	for _, q := range queries {
		for _, p := range backendPaths(q) {
			code, body := httpGet(t, cts.URL+p)
			if code != 200 {
				t.Fatalf("control %s: %d %s", p, code, body)
			}
			want[p] = scrubTrace(body)
		}
	}

	inj := fault.New(7)
	handler, svc, _, err := buildServeHandler(core.New(core.WithShards(nShards)), serveConfig{
		primaryName:  "cuda",
		cacheSize:    256,
		maxInflight:  64,
		timeout:      5 * time.Second,
		metrics:      obs.NewRegistry(),
		faults:       inj,
		brkThreshold: 1 << 20, // keep the breaker out of the way: this test is about shard degradation
		retries:      0,
		backoff:      time.Millisecond,
		sources:      []lifecycle.Source{shardedSource(t, "cuda", 150, 11, nShards)},
	}, logger)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(handler)
	defer ts.Close()

	if got := svc.Stats().Advisors; got == 0 {
		t.Fatal("no advisors registered")
	}

	// every shard execution draws vsm.score independently: at 35% roughly
	// four of five cache-missing queries lose at least one shard
	inj.Set(fault.VSMScore, fault.Rule{ErrProb: 0.35})

	const (
		workers = 6
		perG    = 40
	)
	var (
		partials  atomic.Int64 // 200s with 1 <= shards_failed < nShards
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
					// must never tear a merge in a concurrent query
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
				// fan-out that draws the fault point
				q := fmt.Sprintf("%s hammer-%d-%d", queries[i%len(queries)], g, i)
				u := ts.URL + "/v1/cuda/query?q=" + url.QueryEscape(q)
				if i%3 == 2 {
					// BM25 races the default weighting on the same partitions
					u += "&backend=bm25"
				}
				resp, err := http.Get(u)
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
					Count        int    `json:"count"`
					ShardsFailed int    `json:"shards_failed"`
					TraceID      string `json:"trace_id"`
					Error        string `json:"error"`
				}
				if err := json.Unmarshal(body, &qr); err != nil {
					anomaly("torn response %d: %s", resp.StatusCode, body)
					continue
				}
				switch {
				case resp.StatusCode == 200 && qr.ShardsFailed == 0:
					healthy.Add(1)
				case resp.StatusCode == 200 && qr.ShardsFailed >= 1 && qr.ShardsFailed < nShards:
					partials.Add(1)
				case resp.StatusCode == 200:
					anomaly("200 with shards_failed=%d (>= shard count %d): %s", qr.ShardsFailed, nShards, body)
				case resp.StatusCode >= 500:
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
	if partials.Load() == 0 {
		t.Fatalf("no degraded responses under a 35%% per-shard fault storm (healthy %d, 5xx %d) — shard fault injection not wired?",
			healthy.Load(), failures.Load())
	}
	if reloads.Load() == 0 {
		t.Fatal("no reloads completed")
	}
	t.Logf("hammer: %d healthy, %d partial, %d 5xx, %d reloads", healthy.Load(), partials.Load(), failures.Load(), reloads.Load())

	// all shards failing must be a clean 5xx, never an empty 200
	inj.Set(fault.VSMScore, fault.Rule{ErrProb: 1})
	code, body := httpGet(t, ts.URL+"/v1/cuda/query?q=total+shard+loss")
	if code < 500 {
		t.Fatalf("query with every shard failing: %d %s, want 5xx", code, body)
	}

	// recovery: faults off, the exact control queries must come back
	// complete and byte-identical — proving no partial result was cached
	// during the storm and no torn state survived the reload races
	inj.Reset()
	for _, q := range queries {
		for _, p := range backendPaths(q) {
			code, body := httpGet(t, ts.URL+p)
			if code != 200 {
				t.Fatalf("post-storm %s: %d %s", p, code, body)
			}
			var qr service.QueryResponse
			if err := json.Unmarshal(body, &qr); err != nil {
				t.Fatalf("post-storm %s: torn body %s", p, body)
			}
			if qr.ShardsFailed != 0 {
				t.Fatalf("post-storm %s: shards_failed=%d with faults off", p, qr.ShardsFailed)
			}
			if got := scrubTrace(body); got != want[p] {
				t.Errorf("post-storm %s diverged from fault-free control:\n got %s\nwant %s", p, got, want[p])
			}
		}
	}
}

// backendPaths is the query path of q under the default backend and BM25.
func backendPaths(q string) []string {
	p := "/v1/cuda/query?q=" + url.QueryEscape(q)
	return []string{p, p + "&backend=bm25"}
}

// TestServeShardedPartialNotCached pins the cache interaction in
// isolation: a degraded answer set must not poison the cache, and the
// first fault-free request after recovery recomputes and caches the
// complete answers.
func TestServeShardedPartialNotCached(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	inj := fault.New(3)
	handler, _, _, err := buildServeHandler(core.New(core.WithShards(4)), serveConfig{
		primaryName: "cuda",
		cacheSize:   64,
		maxInflight: 8,
		timeout:     5 * time.Second,
		metrics:     obs.NewRegistry(),
		faults:      inj,
		sources:     []lifecycle.Source{shardedSource(t, "cuda", 150, 11, 4)},
	}, logger)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(handler)
	defer ts.Close()

	// probe distinct queries until one lands degraded: a complete answer is
	// cached on first touch, so each attempt needs a fresh cache key. The
	// query that came back partial is the one whose cache entry must NOT
	// hold the partial answer set.
	inj.Set(fault.VSMScore, fault.Rule{ErrProb: 0.5})
	probe := ""
	for i := 0; i < 200 && probe == ""; i++ {
		u := ts.URL + "/v1/cuda/query?q=" + url.QueryEscape(fmt.Sprintf("reduce global memory latency %d", i))
		code, body := httpGet(t, u)
		if code != 200 {
			continue
		}
		var qr service.QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatalf("torn body: %s", body)
		}
		if qr.ShardsFailed > 0 {
			probe = u
		}
	}
	if probe == "" {
		t.Fatal("no degraded response in 200 draws at 50% per-shard fault probability")
	}

	// with faults off, the next hit must be a complete miss-then-compute:
	// a cached partial would surface here as shards_failed > 0 or X-Cache hit
	// with missing answers
	inj.Reset()
	resp, err := http.Get(probe)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var qr service.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("torn body: %s", body)
	}
	if qr.ShardsFailed != 0 {
		t.Fatalf("partial result was cached: shards_failed=%d after faults off", qr.ShardsFailed)
	}
	if qr.Count == 0 {
		t.Fatalf("post-recovery answers empty: %s", body)
	}
	// and the complete result is what gets cached
	code, body2 := httpGet(t, probe)
	if code != 200 {
		t.Fatalf("cached read: %d", code)
	}
	if scrubTrace(body2) != scrubTrace(body) {
		t.Fatalf("cached body diverged:\n got %s\nwant %s", body2, body)
	}
}
