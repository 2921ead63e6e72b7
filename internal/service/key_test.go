package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/url"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/htmldoc"
	"repro/internal/nlp"
	"repro/internal/nvvp"
	"repro/internal/obs"
)

// guideTerms is every term the advisor's sentences normalize to: an oracle
// for "the guide uses this term" that does not go through the index.
func guideTerms(adv *core.Advisor) map[string]bool {
	out := map[string]bool{}
	for i := 0; i < adv.SentenceCount(); i++ {
		for _, term := range nlp.QueryTerms(adv.SentenceText(i)) {
			out[term] = true
		}
	}
	return out
}

// TestKeyIgnoresWordsOutsideGuide: Stage II drops every term the guide
// never uses, and so does the cache key. A query that differs from a
// cached one only in a measured value is a hit, answering as an uncached
// retrieval of its own text.
func TestKeyIgnoresWordsOutsideGuide(t *testing.T) {
	svc, _ := newTestService(t, Options{Metrics: obs.NewRegistry()})
	used := guideTerms(e2eAdvisor(t))
	for _, term := range []string{"23", "71"} {
		if used[term] {
			t.Fatalf("precondition: the guide uses %q", term)
		}
	}
	for i, c := range []struct {
		q     string
		cache string
	}{
		{"reduce memory latency 23%", "miss"},
		{"reduce memory latency 71%", "hit"},
	} {
		rec := serve(svc, http.MethodGet, "/v1/cuda/query?q="+url.QueryEscape(c.q), nil)
		if got := rec.Header().Get("X-Cache"); got != c.cache {
			t.Errorf("query %d %q: X-Cache %q, want %q", i, c.q, got, c.cache)
		}
		if err := checkQuery(svc, rec, "cuda", "", c.q); err != nil {
			t.Fatalf("query %q: %v", c.q, err)
		}
	}
}

// TestMetricsSnapshotsScoreEachRuleOnce: metrics snapshots that differ only
// in their percentages raise the same issues in different numbers. Each
// issue is scored once, by the first snapshot; every report answers as
// uncached retrieval of its own issue texts.
func TestMetricsSnapshotsScoreEachRuleOnce(t *testing.T) {
	svc, _ := newTestService(t, Options{Metrics: obs.NewRegistry()})
	used := guideTerms(e2eAdvisor(t))
	const snapshots, issues = 5, 6
	for k := 0; k < snapshots; k++ {
		// every value fires its rule; k moves each percentage
		f := float64(k) / 100
		m := nvvp.Metrics{
			Program:                 "snap",
			WarpExecutionEfficiency: 0.61 + f,
			Occupancy:               0.13 + f,
			GlobalLoadEfficiency:    0.37 + f,
			BranchDivergence:        0.43 + f,
			DramUtilization:         0.83 + f,
			IssueSlotUtilization:    0.17 + f,
			LowThroughputInstFrac:   0.47 + f,
			TransferComputeRatio:    1.3 + f,
		}
		body, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		raised := m.Report().Issues()
		if len(raised) != issues {
			t.Fatalf("precondition: snapshot %d raises %d issues, want all %d rules", k, len(raised), issues)
		}
		for _, is := range raised {
			for _, term := range nlp.QueryTerms(is.Query()) {
				if used[term] && term[0] >= '0' && term[0] <= '9' {
					t.Fatalf("precondition: the guide uses the measured value %q", term)
				}
			}
		}
		rec := serve(svc, http.MethodPost, "/v1/cuda/report", body)
		if err := checkReport(svc, rec, "cuda", body); err != nil {
			t.Fatalf("snapshot %d: %v", k, err)
		}
	}
	st := svc.Stats()
	if st.CacheMisses != issues || st.CacheHits != (snapshots-1)*issues {
		t.Errorf("%d snapshots of %d issues: %d misses and %d hits, want %d and %d",
			snapshots, issues, st.CacheMisses, st.CacheHits, issues, (snapshots-1)*issues)
	}
}

// keyGuides are two versions of a guide: the second adds a sentence with a
// word the first never uses. The word sorts before every other term, so
// every term id of the second index differs from the first's.
func keyGuides(t *testing.T) (v1, v2 []htmldoc.Sentence) {
	t.Helper()
	v1 = []htmldoc.Sentence{
		{Text: "You should reduce memory latency by coalescing global accesses."},
		{Text: "Programmers should use shared memory to hide latency."},
		{Text: "Avoid divergent warps in control flow."},
	}
	v2 = append(slices.Clone(v1), htmldoc.Sentence{Text: "You should reduce memory latency with an aardvark buffer."})
	return v1, v2
}

// TestReloadResolvesAgainstNewGuide: a query whose word the old guide never
// used shares its key with the query without the word; after a reload to a
// guide that uses the word, it misses and answers as a cold build of the
// new guide.
func TestReloadResolvesAgainstNewGuide(t *testing.T) {
	v1, v2 := keyGuides(t)
	fw := core.New(core.WithParallelism(1))
	reg := NewRegistry()
	reg.Add("g", fw.BuildFromSentences(nil, v1))
	svc := New(reg, Options{Metrics: obs.NewRegistry()})
	ctx := context.Background()
	const plain, word = "reduce memory latency", "reduce memory latency aardvark"
	for _, c := range []struct {
		q   string
		hit bool
	}{{plain, false}, {word, true}} {
		if _, hit, err := svc.CachedQuery(ctx, "g", c.q); err != nil || hit != c.hit {
			t.Fatalf("before reload, %q: hit=%v err=%v, want hit=%v", c.q, hit, err, c.hit)
		}
	}
	svc.Reload("g", fw.BuildFromSentences(nil, v2))
	cold := fw.BuildFromSentences(nil, v2)
	want := cold.Query(word)
	if sameAnswerBits(want, cold.Query(plain)) {
		t.Fatal("precondition: the new word does not change the answers")
	}
	for _, wantHit := range []bool{false, true} {
		got, hit, err := svc.CachedQuery(ctx, "g", word)
		if err != nil || hit != wantHit || !sameAnswerBits(got, want) {
			t.Fatalf("after reload: hit=%v (want %v) err=%v, answers equal a cold build: %v",
				hit, wantHit, err, sameAnswerBits(got, want))
		}
	}
}

// TestReloadRaceResolvesPerIndex races queries with and without the new
// word against reloads alternating between the two guides (run under
// -race). Whatever index a lookup resolves against, its answer equals a
// cold build of one of the two guides for that exact query.
func TestReloadRaceResolvesPerIndex(t *testing.T) {
	v1, v2 := keyGuides(t)
	fw := core.New(core.WithParallelism(1))
	guides := []*core.Advisor{fw.BuildFromSentences(nil, v1), fw.BuildFromSentences(nil, v2)}
	reg := NewRegistry()
	reg.Add("g", guides[0])
	svc := New(reg, Options{Metrics: obs.NewRegistry(), Timeout: 10 * time.Second})
	queries := []string{"reduce memory latency", "reduce memory latency aardvark", "aardvark latency 42"}
	want := map[string][2][]core.Answer{}
	for _, q := range queries {
		var w [2][]core.Answer
		for i, sents := range [][]htmldoc.Sentence{v1, v2} {
			cold := fw.BuildFromSentences(nil, sents)
			w[i] = cold.Retrieve(context.Background(), nlp.QueryTerms(q), cold.Threshold())
		}
		want[q] = w
	}

	stop := make(chan struct{})
	var swaps sync.WaitGroup
	swaps.Add(1)
	go func() {
		defer swaps.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
				svc.Reload("g", guides[i%2])
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				q := queries[(w+i)%len(queries)]
				got, _, err := svc.CachedQuery(context.Background(), "g", q)
				if err != nil {
					t.Error(err)
					return
				}
				if w := want[q]; !sameAnswerBits(got, w[0]) && !sameAnswerBits(got, w[1]) {
					t.Errorf("%q: answers match neither guide's cold build", q)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	swaps.Wait()
	if hits := svc.Stats().CacheHits; hits == 0 {
		t.Errorf("no cache hits across %d lookups", 4*300)
	}
}
