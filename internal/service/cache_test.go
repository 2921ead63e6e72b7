package service

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/htmldoc"
	"repro/internal/nlp"
	"repro/internal/obs"
)

func answersOf(texts ...string) []core.Answer {
	out := make([]core.Answer, len(texts))
	for i, t := range texts {
		out[i] = core.Answer{Sentence: &core.AdvisingSentence{Index: i, Text: t}, Score: 0.5}
	}
	return out
}

// TestQueryKeyNormalization: the cache key is what the advisor's index
// scores. Casing, punctuation, inflection (Porter stemming), word order and
// words the guide never uses leave it unchanged; another advisor, a
// rebuild of the same guide or another in-vocabulary term change it.
func TestQueryKeyNormalization(t *testing.T) {
	guide := []htmldoc.Sentence{
		{Text: "You should avoid bank conflicts in shared memory."},
		{Text: "Reduce memory latency by coalescing accesses."},
		{Text: "Minimize thread divergence within a warp."},
	}
	fw := core.New(core.WithParallelism(1))
	cuda, rebuilt := fw.BuildFromSentences(nil, guide), fw.BuildFromSentences(nil, guide)
	key := func(adv *core.Advisor, advisor, q string) string {
		return string(appendQueryKey(nil, adv, advisor, nlp.QueryTerms(q)))
	}
	k := key(cuda, "cuda", "Avoid bank conflicts!")
	for _, q := range []string{"avoiding banks conflict", "Avoid bank conflicts! 42", "conflicts bank avoid", "Avoid bank conflicts! 23% of 1.85x, zyzzyva"} {
		if got := key(cuda, "cuda", q); got != k {
			t.Errorf("%q keys as %q, want %q", q, got, k)
		}
	}
	if key(cuda, "cuda", "avoid") == key(cuda, "cuda", "zyzzyva") {
		t.Error("an in-vocabulary term must change the key")
	}
	if key(cuda, "cuda", "memory latency") == key(cuda, "cuda", "thread divergence") {
		t.Error("distinct queries must produce distinct keys")
	}
	if key(cuda, "cuda", "memory latency") == key(cuda, "cuda", "memory memory latency") {
		t.Error("a repeated term must change the key")
	}
	for name, other := range map[string]string{
		"another advisor name":   key(cuda, "opencl", "avoid bank conflicts"),
		"a rebuild of the guide": key(rebuilt, "cuda", "avoid bank conflicts"),
	} {
		if other == k {
			t.Errorf("%s shares the key %q", name, k)
		}
	}
}

// TestQueryKeyFull pins the deprecated term-string key spaces: the pruning
// flag's true value keys the normalized terms under the advisor, whichever
// spelling of the one backend is passed, and false maps to a disjoint
// space under the same advisor prefix.
func TestQueryKeyFull(t *testing.T) {
	terms := []string{"memori", "latenc"}
	const want = "cuda\x00memori latenc"
	for _, backend := range []string{"", "vsm"} {
		on, off := QueryKeyFull("cuda", backend, true, terms), QueryKeyFull("cuda", backend, false, terms)
		if on != want {
			t.Errorf("%q: prune=true key %q, want %q", backend, on, want)
		}
		if on == off {
			t.Errorf("%q: prune=false shares the default key space", backend)
		}
	}
	if n := queryKeyLen("cuda", terms); n != len(want) {
		t.Errorf("queryKeyLen %d for a %d-byte key", n, len(want))
	}
}

func TestCacheHitMissEvict(t *testing.T) {
	stats := newStats(obs.NewRegistry())
	c := NewCache(4, 2, stats)
	calls := 0
	get := func(key string) ([]core.Answer, bool) {
		val, hit, err := c.GetOrCompute(key, func() ([]core.Answer, error) {
			calls++
			return answersOf(key), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return val, hit
	}
	if _, hit := get("a"); hit {
		t.Error("first lookup must miss")
	}
	if val, hit := get("a"); !hit || val[0].Sentence.Text != "a" {
		t.Errorf("second lookup: hit=%v val=%v", hit, val)
	}
	if calls != 1 {
		t.Errorf("compute ran %d times, want 1", calls)
	}
	// overflow the cache and check eviction accounting
	for i := 0; i < 20; i++ {
		get(fmt.Sprintf("key-%d", i))
	}
	if got := c.Len(); got > 4 {
		t.Errorf("cache holds %d entries, cap 4", got)
	}
	if stats.evictions.Value() == 0 {
		t.Error("no evictions recorded after overflow")
	}
	if stats.hits.Value() != 1 || stats.misses.Value() != int64(calls) {
		t.Errorf("hits %d misses %d calls %d", stats.hits.Value(), stats.misses.Value(), calls)
	}
	// Get counts a hit and never a miss: a miss is counted once, by the
	// GetOrCompute that follows it
	hits, misses := stats.hits.Value(), stats.misses.Value()
	if _, ok := c.Get("absent"); ok {
		t.Error("Get found a key never stored")
	}
	if val, ok := c.Get("key-19"); !ok || val[0].Sentence.Text != "key-19" {
		t.Errorf("Get of the newest key: ok=%v val=%v", ok, val)
	}
	if stats.hits.Value() != hits+1 || stats.misses.Value() != misses {
		t.Errorf("Get moved hits %d -> %d and misses %d -> %d, want +1 and +0",
			hits, stats.hits.Value(), misses, stats.misses.Value())
	}
}

func TestCacheLRUOrder(t *testing.T) {
	stats := newStats(obs.NewRegistry())
	c := NewCache(2, 1, stats) // single shard so order is observable
	touch := func(key string) bool {
		_, hit, _ := c.GetOrCompute(key, func() ([]core.Answer, error) { return nil, nil })
		return hit
	}
	touch("a")
	touch("b")
	touch("a") // a is now most recent
	touch("c") // evicts b
	if !touch("a") {
		t.Error("a should have survived (recently used)")
	}
	if touch("b") {
		t.Error("b should have been evicted")
	}
}

func TestCacheSingleFlight(t *testing.T) {
	stats := newStats(obs.NewRegistry())
	c := NewCache(16, 4, stats)
	var computeCalls int
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once

	const waiters = 8
	var wg sync.WaitGroup
	results := make([][]core.Answer, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			val, _, err := c.GetOrCompute("shared", func() ([]core.Answer, error) {
				computeCalls++ // only one goroutine may ever get here
				once.Do(func() { close(started) })
				<-release
				return answersOf("computed"), nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = val
		}(i)
	}
	<-started // the flight is in progress; all other goroutines must wait on it
	close(release)
	wg.Wait()
	if computeCalls != 1 {
		t.Fatalf("compute ran %d times under concurrency, want 1", computeCalls)
	}
	for i, r := range results {
		if len(r) != 1 || r[0].Sentence.Text != "computed" {
			t.Errorf("waiter %d got %v", i, r)
		}
	}
	if stats.misses.Value() != 1 {
		t.Errorf("misses %d, want 1 (single flight)", stats.misses.Value())
	}
	if stats.hits.Value() != waiters-1 {
		t.Errorf("hits %d, want %d (deduplicated waiters)", stats.hits.Value(), waiters-1)
	}
}

func TestCacheComputeErrorNotCached(t *testing.T) {
	c := NewCache(4, 1, newStats(obs.NewRegistry()))
	boom := errors.New("boom")
	calls := 0
	for i := 0; i < 2; i++ {
		_, _, err := c.GetOrCompute("k", func() ([]core.Answer, error) {
			calls++
			return nil, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("want boom, got %v", err)
		}
	}
	if calls != 2 {
		t.Errorf("errors must not be cached: compute ran %d times, want 2", calls)
	}
}

func TestCacheTinyCapacity(t *testing.T) {
	// degenerate configs must clamp, not panic
	c := NewCache(0, 0, newStats(obs.NewRegistry()))
	if len(c.shards) != 1 {
		t.Fatalf("want 1 shard, got %d", len(c.shards))
	}
	c2 := NewCache(2, 8, newStats(obs.NewRegistry())) // more shards than capacity
	if len(c2.shards) != 2 {
		t.Fatalf("shards must be capped by capacity: got %d", len(c2.shards))
	}
}
