package vsm

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/doc"
	"repro/internal/obs"
)

func TestShardOf(t *testing.T) {
	// identity-keyed placement is a pure function of (id, nParts)
	for _, id := range []doc.SentenceID{"a", "b", "sent-000001", "x/y#3"} {
		for _, n := range []int{1, 2, 3, 8} {
			got := partitionOf(id, 99, n)
			if got < 0 || got >= n {
				t.Fatalf("partitionOf(%q, 99, %d) = %d out of range", id, n, got)
			}
			if again := partitionOf(id, 0, n); again != got {
				t.Fatalf("partitionOf(%q) depends on ordinal: %d vs %d", id, got, again)
			}
		}
	}
	// a missing identity falls back to round-robin on the ordinal
	for ord := 0; ord < 10; ord++ {
		if got := partitionOf("", ord, 4); got != ord%4 {
			t.Fatalf("partitionOf(\"\", %d, 4) = %d, want %d", ord, got, ord%4)
		}
	}
	// a single partition short-circuits
	if got := partitionOf("anything", 7, 1); got != 0 {
		t.Fatalf("partitionOf with 1 partition = %d, want 0", got)
	}
}

func partitionSizes(ix *Index) []int {
	sizes := make([]int, len(ix.parts))
	for i, p := range ix.parts {
		sizes[i] = len(p.docs)
	}
	return sizes
}

func TestShardSizesSumToLen(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	gen := 0
	termLists := randomTermLists(rng, 37)
	sh := BuildFromTerms(termLists, idsFor(len(termLists), &gen), nil, 5)
	sizes := partitionSizes(sh)
	if len(sizes) != 5 {
		t.Fatalf("partition sizes len = %d, want 5", len(sizes))
	}
	sum := 0
	for _, s := range sizes {
		sum += s
	}
	if sum != sh.n || sh.n != 37 {
		t.Fatalf("sizes sum %d, Len %d, want 37", sum, sh.n)
	}
	if sh.Partitions() != 5 {
		t.Fatalf("Partitions = %d, want 5", sh.Partitions())
	}
}

func TestBuildShardedNilIDsFallsBack(t *testing.T) {
	// nil or misaligned ids must not panic: every doc lands via round-robin
	lists := [][]string{{"a"}, {"b"}, {"c"}, {"d"}}
	for _, ids := range [][]doc.SentenceID{nil, {"only-one"}} {
		sh := BuildFromTerms(lists, ids, nil, 2)
		if sh.n != 4 {
			t.Fatalf("Len = %d, want 4", sh.n)
		}
		if sizes := partitionSizes(sh); sizes[0] != 2 || sizes[1] != 2 {
			t.Fatalf("round-robin sizes = %v, want [2 2]", sizes)
		}
	}
}

// TestMergeMatchesEdges pins the merge of per-partition match lists: the
// concatenation sorted once reproduces the global total order (score
// descending, ties by index), and a caller's top-k cut of it keeps the
// best.
func TestMergeMatchesEdges(t *testing.T) {
	m := func(idx int, score float64) Match { return Match{Index: idx, Score: score} }
	cases := []struct {
		name  string
		lists [][]Match
		k     int
		want  []Match
	}{
		{"empty", nil, 0, nil},
		{"all empty lists", [][]Match{nil, {}, nil}, 0, nil},
		{"single list passthrough", [][]Match{{m(0, 0.9), m(2, 0.5)}}, 0, []Match{m(0, 0.9), m(2, 0.5)}},
		{"interleave", [][]Match{{m(1, 0.8), m(3, 0.2)}, {m(0, 0.9), m(2, 0.5)}}, 0,
			[]Match{m(0, 0.9), m(1, 0.8), m(2, 0.5), m(3, 0.2)}},
		{"tie resolves by index", [][]Match{{m(5, 0.7)}, {m(2, 0.7)}}, 0,
			[]Match{m(2, 0.7), m(5, 0.7)}},
		{"k truncates", [][]Match{{m(1, 0.8)}, {m(0, 0.9), m(2, 0.5)}}, 2,
			[]Match{m(0, 0.9), m(1, 0.8)}},
		{"k larger than total", [][]Match{{m(1, 0.8)}}, 10, []Match{m(1, 0.8)}},
	}
	for _, tc := range cases {
		var got []Match
		for _, l := range tc.lists {
			got = append(got, l...)
		}
		sortMatches(got)
		got = prefix(got, tc.k)
		if len(got) != len(tc.want) {
			t.Fatalf("%s: %d matches, want %d", tc.name, len(got), len(tc.want))
		}
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Fatalf("%s: match %d = %+v, want %+v", tc.name, i, got[i], tc.want[i])
			}
		}
	}
}

// TestTopMatchesVecEqualsSortTruncate: cutting the engine's list to its
// best k equals sorting the oracle's scores and truncating.
func TestTopMatchesVecEqualsSortTruncate(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for round := 0; round < 30; round++ {
		ix := BuildFromTerms(randomTermLists(rng, 5+rng.Intn(30)), nil, nil, 1+round%3)
		q := splitTerms(diffQueries[round%len(diffQueries)])
		for _, threshold := range []float64{0, 0.01, DefaultThreshold} {
			for _, backend := range Backends() {
				full := run(t, ix, q, QueryOpts{Backend: backend, Threshold: threshold})
				dense := denseMatches(ix, q, backend, threshold)
				for _, k := range []int{1, 2, 5, 100} {
					sameMatches(t, fmt.Sprintf("round %d %s k=%d th=%v", round, backend, k, threshold),
						prefix(full, k), prefix(dense, k))
				}
			}
		}
	}
}

func TestShardedQueryEmptyAndUnknownTerms(t *testing.T) {
	gen := 0
	lists := [][]string{{"alpha", "beta"}, {"gamma"}}
	sh := BuildFromTerms(lists, idsFor(2, &gen), nil, 2)
	if got := run(t, sh, nil, QueryOpts{Threshold: DefaultThreshold}); got != nil {
		t.Fatalf("empty query: %v, want nil", got)
	}
	if got := run(t, sh, []string{"zzz"}, QueryOpts{Threshold: DefaultThreshold}); got != nil {
		t.Fatalf("out-of-vocab query: %v, want nil", got)
	}
	for i, s := range engineScores(t, sh, []string{"zzz"}, BackendVSM) {
		if s != 0 {
			t.Fatalf("out-of-vocab score[%d] = %v, want 0", i, s)
		}
	}
}

func TestShardedScorerBackends(t *testing.T) {
	gen := 0
	sh := BuildFromTerms([][]string{{"a"}, {"b"}}, idsFor(2, &gen), nil, 2)
	for _, backend := range []string{"", BackendVSM, BackendBM25} {
		if _, _, err := sh.Query(t.Context(), []string{"a"}, QueryOpts{Backend: backend}); err != nil {
			t.Fatalf("backend %q: %v", backend, err)
		}
	}
	if _, _, err := sh.Query(t.Context(), []string{"a"}, QueryOpts{Backend: "tfidf2"}); !errors.Is(err, ErrUnknownBackend) {
		t.Fatalf("unknown backend error = %v, want ErrUnknownBackend", err)
	}
}

// TestShardOutcomeNilSafe: without a fault draw the outcome is inert —
// every partition ran, none failed, no error.
func TestShardOutcomeNilSafe(t *testing.T) {
	gen := 0
	sh := BuildFromTerms([][]string{{"a"}, {"b"}, {"c"}}, idsFor(3, &gen), nil, 3)
	_, o, err := sh.Query(t.Context(), []string{"a"}, QueryOpts{})
	if err != nil || o.Partitions != 3 || o.Failed != 0 || o.Err != nil {
		t.Fatalf("outcome %+v err %v, want 3 partitions, none failed", o, err)
	}
}

// failFirst returns a fault draw that fails only its first call.
func failFirst(err error) func() error {
	var mu sync.Mutex
	calls := 0
	return func() error {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if calls == 1 {
			return err
		}
		return nil
	}
}

func TestShardFaultPartialAndTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	gen := 0
	termLists := randomTermLists(rng, 24)
	sh := BuildFromTerms(termLists, idsFor(len(termLists), &gen), nil, 4)
	terms := []string{"term03", "term17", "common"}
	healthy := engineScores(t, sh, terms, BackendVSM)

	// fail exactly the first partition execution; serial scoring makes that
	// deterministically partition 0
	boom := errors.New("boom")
	all := QueryOpts{Threshold: -1, Serial: true, Fault: failFirst(boom)}
	partial, outcome, err := sh.Query(t.Context(), terms, all)
	if err != nil {
		t.Fatal(err)
	}
	if outcome.Partitions != 4 || outcome.Failed != 1 {
		t.Fatalf("outcome partitions %d failed %d, want 4 and 1", outcome.Partitions, outcome.Failed)
	}
	if !errors.Is(outcome.Err, boom) {
		t.Fatalf("outcome err = %v, want boom", outcome.Err)
	}
	// the failed partition's docs are missing; every other doc is
	// bit-identical
	failed := map[int]bool{}
	for _, g := range sh.parts[0].docs {
		failed[int(g)] = true
	}
	if len(partial) != sh.n-len(failed) {
		t.Fatalf("%d partial matches, want %d", len(partial), sh.n-len(failed))
	}
	for _, m := range partial {
		if failed[m.Index] {
			t.Fatalf("failed-partition doc %d matched", m.Index)
		}
		if math.Float64bits(m.Score) != math.Float64bits(healthy[m.Index]) {
			t.Fatalf("healthy doc %d: %x vs %x", m.Index, m.Score, healthy[m.Index])
		}
	}

	// all partitions failing is an empty answer and a full count, never a
	// panic — for both backends
	for _, backend := range Backends() {
		o := QueryOpts{Backend: backend, Threshold: -1, Serial: true, Fault: func() error { return boom }}
		dead, outcome, err := sh.Query(t.Context(), terms, o)
		if err != nil || len(dead) != 0 || outcome.Failed != 4 || outcome.Partitions != 4 {
			t.Fatalf("%s all-fail: %d matches, outcome %+v, err %v", backend, len(dead), outcome, err)
		}
	}
}

func TestShardedRebuildRetrieverKeepsLayout(t *testing.T) {
	gen := 0
	lists := [][]string{{"a"}, {"b"}, {"c"}}
	ids := idsFor(3, &gen)
	next, err := BuildFromTerms(lists, ids, nil, 3).Rebuild(
		[]doc.Kept{{Old: 0, New: 0}, {Old: 2, New: 1}},
		[]AddedDoc{{Pos: 2, Terms: []string{"d"}, ID: doc.SentenceID(fmt.Sprintf("sent-%06d", gen))}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if next.Partitions() != 3 || next.n != 3 {
		t.Fatalf("Partitions %d Len %d, want 3 and 3", next.Partitions(), next.n)
	}
}

func TestShardedAccessorsAndTracedPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	gen := 0
	termLists := randomTermLists(rng, 20)
	sh := BuildFromTerms(termLists, idsFor(len(termLists), &gen), nil, 3)
	mono := BuildFromTerms(termLists, nil, nil, 1)

	if len(sh.vocab) != len(mono.vocab) {
		t.Fatalf("VocabSize %d vs %d", len(sh.vocab), len(mono.vocab))
	}
	if got, want := idfOf(sh, "common"), idfOf(mono, "common"); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("IDF(common) %x vs %x", got, want)
	}
	if idfOf(sh, "nosuchterm") != 0 {
		t.Fatal("IDF of unknown term must be 0")
	}
	if !ValidBackend(BackendBM25) || !ValidBackend("") || ValidBackend("nope") {
		t.Fatal("ValidBackend broken")
	}

	// traced scoring: both backends, partitioned and not, under a real
	// recorded span — the scores match the untraced pass, and the trace
	// holds a vsm.score span naming its backend over one vsm.shard span per
	// partition
	tracer := obs.NewTracer(1.0, obs.NewTraceStore(obs.DefaultTraceCapacity))
	terms := []string{"term03", "term17", "common"}
	sctx, root := tracer.Start(context.Background(), "test.query")
	for _, ix := range []*Index{sh, mono} {
		for _, backend := range Backends() {
			o := QueryOpts{Backend: backend, Threshold: -1}
			got, _, err := ix.Query(sctx, terms, o)
			if err != nil {
				t.Fatal(err)
			}
			sameMatches(t, "traced "+backend, got, run(t, mono, terms, o))
		}
	}
	root.Finish()
	tr, ok := tracer.Store().Get(obs.TraceID(sctx))
	if !ok {
		t.Fatal("trace not recorded")
	}
	var shards []int
	var backends []string
	for _, sp := range tr.Root.Children {
		if sp.Name != "vsm.score" {
			t.Fatalf("root child %q, want vsm.score", sp.Name)
		}
		for _, a := range sp.Attrs {
			if a.Key == "backend" {
				backends = append(backends, a.Value)
			}
		}
		shards = append(shards, len(sp.Children))
	}
	if fmt.Sprint(backends) != "[vsm bm25 vsm bm25]" || fmt.Sprint(shards) != "[3 3 1 1]" {
		t.Fatalf("traced spans: backends %v, shard spans %v", backends, shards)
	}
}

// TestShardedParallelFanOut forces the multi-worker pool (GOMAXPROCS may be
// 1, which would otherwise keep the fan-out serial) and checks the parallel
// pass is bit-identical to the serial one.
func TestShardedParallelFanOut(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	rng := rand.New(rand.NewSource(79))
	gen := 0
	termLists := randomTermLists(rng, 60)
	sh := BuildFromTerms(termLists, idsFor(len(termLists), &gen), nil, 4)
	terms := []string{"term03", "term17", "common", "term29"}
	for _, backend := range Backends() {
		o := QueryOpts{Backend: backend, Threshold: -1}
		par := run(t, sh, terms, o)
		o.Serial = true
		sameMatches(t, "parallel fan-out "+backend, par, run(t, sh, terms, o))
	}

	// partial failure under the parallel pool: exactly one partition's draw
	// fails; its docs are missing and the rest bit-identical
	ser := engineScores(t, sh, terms, BackendVSM)
	partial, outcome, err := sh.Query(t.Context(), terms, QueryOpts{Threshold: -1, Fault: failFirst(errors.New("boom"))})
	if err != nil {
		t.Fatal(err)
	}
	if outcome.Failed != 1 || outcome.Partitions != 4 {
		t.Fatalf("outcome failed %d partitions %d, want 1 and 4", outcome.Failed, outcome.Partitions)
	}
	missing := map[int]bool{}
	for i := 0; i < sh.n; i++ {
		missing[i] = true
	}
	for _, m := range partial {
		delete(missing, m.Index)
		if math.Float64bits(m.Score) != math.Float64bits(ser[m.Index]) {
			t.Fatalf("doc %d diverged: %v vs %v", m.Index, m.Score, ser[m.Index])
		}
	}
	// every missing doc must belong to a single partition's document set
	for p := range sh.parts {
		inPart := 0
		for _, g := range sh.parts[p].docs {
			if missing[int(g)] {
				inPart++
			}
		}
		if inPart > 0 && (inPart != len(missing) || inPart != len(sh.parts[p].docs)) {
			t.Fatalf("missing docs span partitions: %d of %d in partition %d", inPart, len(missing), p)
		}
	}
}

// TestConcurrentQueriesShareScratch: queries racing on the same partitions
// each draw their own pooled accumulator, and an accumulator comes back to
// the pool clean, so every query returns what it returns alone.
func TestConcurrentQueriesShareScratch(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(83))
	gen := 0
	termLists := randomTermLists(rng, 80)
	ix := BuildFromTerms(termLists, idsFor(len(termLists), &gen), nil, 2)
	type tc struct {
		terms []string
		o     QueryOpts
		want  []Match
	}
	var cases []tc
	for _, q := range diffQueries {
		for _, backend := range Backends() {
			for _, threshold := range []float64{-1, DefaultThreshold} {
				o := QueryOpts{Backend: backend, Threshold: threshold}
				cases = append(cases, tc{splitTerms(q), o, run(t, ix, splitTerms(q), o)})
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c := cases[(g+i)%len(cases)]
				got, _, err := ix.Query(context.Background(), c.terms, c.o)
				if err != nil || !matchesEqual(got, c.want) {
					t.Errorf("goroutine %d query %v %+v: %v (err %v), want %v", g, c.terms, c.o, got, err, c.want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestServedMask pins what a served mask changes and what it keeps: only
// served documents have postings (and the postings counter advances by
// exactly the ones walked), while the vocabulary, the IDF tables and the
// query norm still cover every document — "d" occurs only in the unserved
// document, yet it weighs in the norm of a query that names it.
func TestServedMask(t *testing.T) {
	lists := [][]string{{"a", "b"}, {"a", "c", "d"}, {"c"}}
	served := []bool{true, false, true}
	all := BuildFromTerms(lists, nil, nil, 1)
	for _, parts := range []int{1, 2} {
		ix := BuildFromTerms(lists, nil, served, parts)
		if len(ix.vocab) != len(all.vocab) || ix.n != all.n {
			t.Fatalf("parts %d: vocab %d n %d, want %d and %d", parts, len(ix.vocab), ix.n, len(all.vocab), all.n)
		}
		for term, id := range all.vocab {
			if ix.vocab[term] != id || math.Float64bits(ix.idf[id]) != math.Float64bits(all.idf[id]) {
				t.Fatalf("parts %d: term %q statistics differ", parts, term)
			}
		}
		before := postingsScored.Value()
		got := run(t, ix, []string{"a", "c"}, QueryOpts{Threshold: -1})
		if walked := postingsScored.Value() - before; walked != 2 {
			t.Fatalf("parts %d: %d postings walked, want 2 (one served posting each for a and c)", parts, walked)
		}
		if len(got) != 2 || got[0].Index == 1 || got[1].Index == 1 {
			t.Fatalf("parts %d: matches %+v, want the two served documents", parts, got)
		}
		sameMatches(t, fmt.Sprintf("parts %d global norm", parts),
			run(t, ix, []string{"b", "d"}, QueryOpts{Threshold: -1}),
			maskedOracle(all, served, []string{"b", "d"}, BackendVSM, -1))
	}
}

// TestBuildLimits: a misaligned mask is a caller bug and panics; the
// partition count is clamped to [1, MaxPartitions].
func TestBuildLimits(t *testing.T) {
	lists := [][]string{{"a"}, {"b"}}
	if got := BuildFromTerms(lists, nil, nil, MaxPartitions+1).Partitions(); got != MaxPartitions {
		t.Errorf("%d partitions asked: %d built, want %d", MaxPartitions+1, got, MaxPartitions)
	}
	if got := BuildFromTerms(lists, nil, nil, -3).Partitions(); got != 1 {
		t.Errorf("-3 partitions asked: %d built, want 1", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("misaligned mask: no panic")
		}
	}()
	BuildFromTerms(lists, nil, []bool{true}, 1)
}
