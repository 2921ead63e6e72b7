package lifecycle_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/htmldoc"
	"repro/internal/lifecycle"
	"repro/internal/nlp"
	"repro/internal/obs"
	"repro/internal/store"
)

// editableGuide is a Source over a guide whose sentences a test (or the
// benchmark) can edit between reloads, with builds from nothing and updates
// from a previous advisor counted separately.
type editableGuide struct {
	name       string
	fw         *core.Framework
	mu         sync.Mutex
	d          *htmldoc.Document
	base       []htmldoc.Sentence // pristine extraction (texts + section indices)
	edits      map[int]string     // sentence index → replacement text
	version    int
	coldBuilds atomic.Int64 // Build calls with a nil prev
	updates    atomic.Int64 // Build calls with a prev to update
}

func newEditableGuide(name string, reg corpus.Register, n int, seed int64) *editableGuide {
	var g *corpus.Guide
	if n > 0 {
		g = corpus.GenerateSized(reg, n, 0.3, seed)
	} else {
		g = corpus.Generate(reg, seed)
	}
	return &editableGuide{
		name:  name,
		fw:    core.New(),
		d:     g.Doc,
		base:  g.Sentences,
		edits: map[int]string{},
	}
}

// setEdit replaces the text of sentence i from the next reload on.
func (e *editableGuide) setEdit(i int, text string) {
	e.mu.Lock()
	e.edits[i] = text
	e.version++
	e.mu.Unlock()
}

// sentences materializes the current document version: a copy of the base
// sentences with the edits applied.
func (e *editableGuide) sentences() []htmldoc.Sentence {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := slices.Clone(e.base)
	for i, text := range e.edits {
		out[i].Text = text
	}
	return out
}

func (e *editableGuide) source() lifecycle.Source {
	return lifecycle.Source{
		Name: e.name,
		Fingerprint: func() (string, error) {
			e.mu.Lock()
			defer e.mu.Unlock()
			return fmt.Sprintf("%s:v%d", e.name, e.version), nil
		},
		Build: func(ctx context.Context, prev *core.Advisor) (*core.Advisor, error) {
			if prev == nil {
				e.coldBuilds.Add(1)
			} else {
				e.updates.Add(1)
			}
			return e.fw.UpdateFromSentencesCtx(ctx, prev, e.d, e.sentences())
		},
	}
}

func incrementalManager(t *testing.T, st *store.Store, guides ...*editableGuide) (*lifecycle.Manager, *fakeRegistry) {
	t.Helper()
	reg := newFakeRegistry()
	m := lifecycle.New(lifecycle.Options{
		Store:    st,
		Register: reg.register,
		Swap:     reg.swap,
		Metrics:  obs.NewRegistry(),
	})
	for _, g := range guides {
		if err := m.AddSource(g.source()); err != nil {
			t.Fatal(err)
		}
	}
	return m, reg
}

// assertSameAnswers checks that two advisors give Float64bits-identical
// answers over the frozen eval queries.
func assertSameAnswers(t *testing.T, got, want *core.Advisor) {
	t.Helper()
	for _, q := range corpus.CUDAQueries() {
		terms := nlp.QueryTerms(q.Text)
		ag := got.Retrieve(context.Background(), terms, got.Threshold())
		aw := want.Retrieve(context.Background(), terms, want.Threshold())
		if len(ag) != len(aw) {
			t.Fatalf("query %q: %d vs %d answers", q.Text, len(ag), len(aw))
		}
		for i := range aw {
			if *ag[i].Sentence != *aw[i].Sentence ||
				math.Float64bits(ag[i].Score) != math.Float64bits(aw[i].Score) {
				t.Fatalf("query %q answer %d: %+v vs %+v", q.Text, i, ag[i], aw[i])
			}
		}
	}
}

func TestIncrementalRebuildSmallEdit(t *testing.T) {
	g := newEditableGuide("cuda", corpus.CUDA, 120, 51)
	m, reg := incrementalManager(t, nil, g)
	if err := m.WarmStart(context.Background()); err != nil {
		t.Fatal(err)
	}
	g.setEdit(10, "Align global memory accesses to transaction boundaries for best throughput.")
	if err := m.ReloadNow(context.Background(), "cuda"); err != nil {
		t.Fatal(err)
	}
	if got := g.updates.Load(); got != 1 {
		t.Fatalf("incremental updates = %d, want 1", got)
	}
	if got := g.coldBuilds.Load(); got != 1 { // warm start only
		t.Fatalf("cold builds = %d, want 1", got)
	}
	adv := m.State().Advisors[0]
	if want := float64(119) / 120; adv.LastReuseRatio != want {
		t.Fatalf("LastReuseRatio = %v, want %v", adv.LastReuseRatio, want)
	}

	// the swapped advisor is equivalent to a full build of the same edit
	assertSameAnswers(t, reg.get("cuda"), g.fw.BuildFromSentences(g.d, g.sentences()))
}

// TestLargeRewriteUpdates: an edit of any size reloads as one update from
// the serving advisor, here at change ratios 0.6 (18 of 60 sentences
// rewritten) and 2.0 (all 60), with answers equal to a cold build.
func TestLargeRewriteUpdates(t *testing.T) {
	g := newEditableGuide("cuda", corpus.CUDA, 60, 53)
	m, reg := incrementalManager(t, nil, g)
	if err := m.WarmStart(context.Background()); err != nil {
		t.Fatal(err)
	}
	// the rewrites stay advising sentences, or Verify would reject the
	// guide rewritten in full
	advice := []string{
		"Use shared memory tiles to cut redundant global loads",
		"Coalesce global memory accesses across each warp",
		"Avoid divergent branches inside a warp",
		"Overlap host transfers with kernel execution using streams",
		"Prefer pinned host memory for faster transfers",
		"Limit register use per thread to raise occupancy",
	}
	for round, n := range []int{18, 60} {
		for i := 0; i < n; i++ {
			g.setEdit(i, fmt.Sprintf("%s, revision %d of sentence %d.", advice[i%len(advice)], round, i))
		}
		if err := m.ReloadNow(context.Background(), "cuda"); err != nil {
			t.Fatalf("rewrite of %d sentences: %v", n, err)
		}
		if got := g.updates.Load(); got != int64(round+1) {
			t.Fatalf("rewrite of %d sentences: %d updates, want %d", n, got, round+1)
		}
		if got, want := m.State().Advisors[0].LastReuseRatio, float64(60-n)/60; got != want {
			t.Fatalf("rewrite of %d sentences: reuse ratio %v, want %v", n, got, want)
		}
		assertSameAnswers(t, reg.get("cuda"), g.fw.BuildFromSentences(g.d, g.sentences()))
	}
	if got := g.coldBuilds.Load(); got != 1 { // warm start only
		t.Fatalf("cold builds = %d, want 1", got)
	}
}

// TestRetryBuildsFromNothing: a serving advisor that cannot be updated
// still reloads, because a rebuild's retry builds from nothing.
func TestRetryBuildsFromNothing(t *testing.T) {
	g := newEditableGuide("cuda", corpus.CUDA, 60, 55)
	src := g.source()
	build := src.Build
	src.Build = func(ctx context.Context, prev *core.Advisor) (*core.Advisor, error) {
		if prev != nil {
			return nil, errors.New("base cannot be updated")
		}
		return build(ctx, nil)
	}
	reg := newFakeRegistry()
	m := lifecycle.New(lifecycle.Options{
		Register: reg.register,
		Swap:     reg.swap,
		Backoff:  time.Millisecond,
		Metrics:  obs.NewRegistry(),
	})
	if err := m.AddSource(src); err != nil {
		t.Fatal(err)
	}
	if err := m.WarmStart(context.Background()); err != nil {
		t.Fatal(err)
	}
	g.setEdit(3, "Use shared memory tiles to cut redundant global loads.")
	if err := m.ReloadNow(context.Background(), "cuda"); err != nil {
		t.Fatalf("reload did not recover on its retry: %v", err)
	}
	st := m.State()
	if st.BuildFailures != 1 || st.Reloads != 1 {
		t.Fatalf("build failures %d, reloads %d; want 1, 1", st.BuildFailures, st.Reloads)
	}
	if got := g.coldBuilds.Load(); got != 2 { // warm start and the retry
		t.Fatalf("cold builds = %d, want 2", got)
	}
	if got := st.Advisors[0].LastReuseRatio; got != 0 {
		t.Fatalf("reuse ratio of a build from nothing = %v, want 0", got)
	}
	assertSameAnswers(t, reg.get("cuda"), g.fw.BuildFromSentences(g.d, g.sentences()))
}

// TestIncrementalAfterSnapshotWarmStart exercises the warm-started base: an
// advisor loaded from the snapshot store (term-only annotations) must still
// support the differential path.
func TestIncrementalAfterSnapshotWarmStart(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := newEditableGuide("cuda", corpus.CUDA, 120, 57)
	m1, _ := incrementalManager(t, st, g)
	if err := m1.WarmStart(context.Background()); err != nil {
		t.Fatal(err)
	}

	// second boot: snapshot hit, then a small edit
	m2, reg := incrementalManager(t, st, g)
	if err := m2.WarmStart(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := m2.State().SnapshotHits; got != 1 {
		t.Fatalf("snapshot hits = %d, want 1", got)
	}
	g.setEdit(20, "Profile occupancy before tuning block dimensions.")
	if err := m2.ReloadNow(context.Background(), "cuda"); err != nil {
		t.Fatal(err)
	}
	if got := g.updates.Load(); got != 1 {
		t.Fatalf("incremental updates = %d, want 1 (warm-started base)", got)
	}
	assertSameAnswers(t, reg.get("cuda"), g.fw.BuildFromSentences(g.d, g.sentences()))
}
