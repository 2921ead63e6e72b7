package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
)

// twoAdvisorService builds a service hosting the shared CUDA advisor plus
// an OpenCL advisor, for federation tests.
func twoAdvisorService(t testing.TB, opts Options) (*Service, *httptest.Server) {
	t.Helper()
	reg := NewRegistry()
	reg.Add("cuda", e2eAdvisor(t))
	g := corpus.GenerateSized(corpus.OpenCL, 150, 0.3, 7)
	reg.Add("opencl", core.New().BuildFromSentences(g.Doc, g.Sentences))
	svc := New(reg, opts)
	ts := httptest.NewServer(svc)
	t.Cleanup(ts.Close)
	return svc, ts
}

// TestAskPreservesPerAdvisorOrder: the max-normalization used for the
// federated merge is strictly monotone per advisor, so extracting one
// advisor's answers from the merged list must reproduce that advisor's own
// ranking exactly — federation reweighs across advisors, never within one.
func TestAskPreservesPerAdvisorOrder(t *testing.T) {
	svc, _ := twoAdvisorService(t, Options{})
	const q = "memory bandwidth and access patterns"
	const k = 5
	merged, errs := svc.Ask(context.Background(), "", q, k)
	if len(errs) != 0 {
		t.Fatalf("ask errors: %v", errs)
	}
	if len(merged) == 0 {
		t.Fatal("federated ask found nothing")
	}
	for _, advisor := range []string{"cuda", "opencl"} {
		own, _, err := svc.CachedQuery(context.Background(), advisor, "", q)
		if err != nil {
			t.Fatal(err)
		}
		if len(own) > k {
			own = own[:k]
		}
		var fromMerge []int
		for _, fa := range merged {
			if fa.Advisor == advisor {
				fromMerge = append(fromMerge, fa.Rule.Index)
			}
		}
		if len(fromMerge) != len(own) {
			t.Fatalf("%s: merge holds %d answers, advisor returned %d", advisor, len(fromMerge), len(own))
		}
		for i := range own {
			if own[i].Sentence.Index != fromMerge[i] {
				t.Errorf("%s: rank %d is rule %d in the merge but %d natively",
					advisor, i, fromMerge[i], own[i].Sentence.Index)
			}
		}
	}
	// the best answer of each contributing advisor is normalized to 1.0
	seen := map[string]bool{}
	for _, fa := range merged {
		if !seen[fa.Advisor] {
			seen[fa.Advisor] = true
			if fa.Norm != 1.0 {
				t.Errorf("%s's best answer has norm %v, want 1.0", fa.Advisor, fa.Norm)
			}
		}
	}
}

// TestAskDeterministic: identical asks produce identical merged rankings
// (the sort is fully tiebroken).
func TestAskDeterministic(t *testing.T) {
	svc, _ := twoAdvisorService(t, Options{})
	const q = "overlapping computation with data transfer"
	a, _ := svc.Ask(context.Background(), "", q, 4)
	b, _ := svc.Ask(context.Background(), "", q, 4)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Advisor != b[i].Advisor || a[i].Rule.Index != b[i].Rule.Index || a[i].Norm != b[i].Norm {
			t.Fatalf("rank %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestBatchHandlerLimits table-drives the request-shape edge cases of
// POST /v1/batch: malformed and empty bodies, oversized batches, and the
// one-bad-item-does-not-fail-the-batch contract.
func TestBatchHandlerLimits(t *testing.T) {
	_, ts := newTestService(t, Options{MaxBatch: 3})
	post := func(body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, rerr := resp.Body.Read(buf)
			b.Write(buf[:n])
			if rerr != nil {
				break
			}
		}
		return resp.StatusCode, []byte(b.String())
	}
	item := `{"advisor":"cuda","query":"memory latency"}`
	cases := []struct {
		name string
		body string
		want int
	}{
		{"not json", `{nope`, 400},
		{"empty object", `{}`, 400},
		{"empty queries", `{"queries":[]}`, 400},
		{"at limit", `{"queries":[` + item + `,` + item + `,` + item + `]}`, 200},
		{"over limit", `{"queries":[` + item + `,` + item + `,` + item + `,` + item + `]}`, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := post(tc.body)
			if code != tc.want {
				t.Errorf("status %d, want %d (%s)", code, tc.want, body)
			}
		})
	}

	t.Run("bad items isolated", func(t *testing.T) {
		code, body := post(`{"queries":[
			{"advisor":"cuda","query":"memory latency"},
			{"advisor":"cuda","query":"","backend":""},
			{"advisor":"cuda","query":"anything","backend":"nope"}
		]}`)
		if code != 200 {
			t.Fatalf("status %d: %s", code, body)
		}
		var br BatchResponse
		if err := json.Unmarshal(body, &br); err != nil {
			t.Fatal(err)
		}
		if br.Count != 3 || br.Errors != 2 {
			t.Fatalf("count=%d errors=%d, want 3/2", br.Count, br.Errors)
		}
		if br.Results[0].Error != "" || br.Results[1].Error == "" || br.Results[2].Error == "" {
			t.Errorf("error placement wrong: %+v", br.Results)
		}
		if !strings.Contains(br.Results[2].Error, "unknown scoring backend") {
			t.Errorf("item 2 error %q does not name the backend failure", br.Results[2].Error)
		}
	})

	t.Run("oversized body", func(t *testing.T) {
		svc2, ts2 := newTestService(t, Options{MaxBodySize: 128})
		_ = svc2
		resp, err := http.Post(ts2.URL+"/v1/batch", "application/json",
			strings.NewReader(`{"queries":[{"advisor":"cuda","query":"`+strings.Repeat("x ", 200)+`"}]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("status %d, want 413", resp.StatusCode)
		}
	})
}

// TestBatchMatchesSequential: a batch answer must be answer-for-answer
// identical to asking the same queries one at a time (same cache, same
// backend), independent of worker interleaving.
func TestBatchMatchesSequential(t *testing.T) {
	svc, _ := newTestService(t, Options{BatchWorkers: 4})
	var items []BatchItem
	for i := 0; i < 12; i++ {
		items = append(items, BatchItem{
			Advisor: "cuda",
			Query:   fmt.Sprintf("memory access pattern variant %d", i),
			Backend: []string{"", "vsm", "bm25"}[i%3],
		})
	}
	results := svc.Batch(context.Background(), items)
	for i, item := range items {
		want, _, err := svc.CachedQuery(context.Background(), item.Advisor, item.Backend, item.Query)
		if err != nil {
			t.Fatal(err)
		}
		if results[i].Error != "" {
			t.Fatalf("item %d failed: %s", i, results[i].Error)
		}
		if len(results[i].Answers) != len(want) {
			t.Fatalf("item %d: %d answers via batch, %d sequential", i, len(results[i].Answers), len(want))
		}
		for j := range want {
			if results[i].Answers[j].Index != want[j].Sentence.Index || results[i].Answers[j].Score != want[j].Score {
				t.Errorf("item %d answer %d: batch (%d, %v) vs sequential (%d, %v)",
					i, j, results[i].Answers[j].Index, results[i].Answers[j].Score,
					want[j].Sentence.Index, want[j].Score)
			}
		}
	}
}

// TestBatchAskReplaceRace hammers /v1/batch and /v1/ask concurrently with
// Registry.Replace hot-swaps (run under -race in CI): no request may be
// lost or crash, every batch response carries exactly its items with unique
// per-item trace IDs, and the service settles consistent afterwards.
func TestBatchAskReplaceRace(t *testing.T) {
	svc, ts := twoAdvisorService(t, Options{MaxBatch: 16, BatchWorkers: 4, Timeout: 10 * time.Second})

	const (
		clients  = 6
		rounds   = 8
		swappers = 2
	)
	// one replacement advisor per swapper: Registry.Replace stamps the
	// advisor with its serving name, so sharing one instance across
	// swappers would be a caller-side race, not a service one
	replacements := make([]*core.Advisor, swappers)
	for s := range replacements {
		g := corpus.GenerateSized(corpus.CUDA, 100, 0.3, int64(11+s))
		replacements[s] = core.New().BuildFromSentences(g.Doc, g.Sentences)
	}
	var (
		mu       sync.Mutex
		traceIDs = map[string]int{}
	)
	stop := make(chan struct{})
	var swapWG sync.WaitGroup
	for s := 0; s < swappers; s++ {
		swapWG.Add(1)
		go func(s int) {
			defer swapWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
					svc.Reload("cuda", replacements[s])
					time.Sleep(time.Millisecond)
				}
			}
		}(s)
	}

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// alternate batch and federated ask
				if (c+r)%2 == 0 {
					body := fmt.Sprintf(`{"queries":[
						{"advisor":"cuda","query":"memory latency round %d"},
						{"advisor":"opencl","query":"work group size round %d"},
						{"advisor":"cuda","query":"divergent warps","backend":"bm25"}
					]}`, r, r)
					resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
					if err != nil {
						t.Error(err)
						return
					}
					var br BatchResponse
					err = json.NewDecoder(resp.Body).Decode(&br)
					resp.Body.Close()
					if err != nil {
						t.Error(err)
						return
					}
					if br.Count != 3 || len(br.Results) != 3 {
						t.Errorf("client %d round %d: lost batch items: %+v", c, r, br)
						return
					}
					mu.Lock()
					for _, res := range br.Results {
						traceIDs[res.TraceID]++
					}
					mu.Unlock()
				} else {
					resp, err := http.Get(ts.URL + "/v1/ask?q=memory+bandwidth&k=3")
					if err != nil {
						t.Error(err)
						return
					}
					var ar AskResponse
					err = json.NewDecoder(resp.Body).Decode(&ar)
					resp.Body.Close()
					if err != nil {
						t.Error(err)
						return
					}
					if resp.StatusCode != 200 {
						t.Errorf("client %d round %d: ask status %d", c, r, resp.StatusCode)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	swapWG.Wait()

	// every batch item got its own fresh trace ID
	for id, n := range traceIDs {
		if id == "" {
			t.Error("batch item with empty trace ID")
		}
		if n > 1 {
			t.Errorf("trace ID %s reused %d times", id, n)
		}
	}
	// the service is still coherent: a fresh query answers normally
	if _, _, err := svc.CachedQuery(context.Background(), "cuda", "", "final sanity query"); err != nil {
		t.Errorf("post-hammer query failed: %v", err)
	}
}
