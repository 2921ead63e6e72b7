package lifecycle_test

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/htmldoc"
	"repro/internal/lifecycle"
	"repro/internal/nlp"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/vsm"
)

// editableGuide is a Source over a guide whose sentences a test (or the
// benchmark) can edit between reloads, with full builds and incremental
// updates counted separately.
type editableGuide struct {
	name       string
	fw         *core.Framework
	mu         sync.Mutex
	d          *htmldoc.Document
	base       []htmldoc.Sentence // pristine extraction (texts + section indices)
	edits      map[int]string     // sentence index → replacement text
	version    int
	fullBuilds atomic.Int64
	updates    atomic.Int64
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

// sentences materializes the current document version: fresh unstamped
// copies of the base sentences with the edits applied.
func (e *editableGuide) sentences() []htmldoc.Sentence {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]htmldoc.Sentence, len(e.base))
	for i, s := range e.base {
		out[i] = htmldoc.Sentence{Text: s.Text, Section: s.Section}
		if text, ok := e.edits[i]; ok {
			out[i].Text = text
		}
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
		Build: func(ctx context.Context) (*core.Advisor, error) {
			e.fullBuilds.Add(1)
			return e.fw.BuildFromSentencesCtx(ctx, e.d, e.sentences()), nil
		},
		Sentences: func(ctx context.Context) (*htmldoc.Document, []htmldoc.Sentence, error) {
			return e.d, e.sentences(), nil
		},
		Update: func(ctx context.Context, prev *core.Advisor, d *htmldoc.Document, sents []htmldoc.Sentence) (*core.Advisor, error) {
			e.updates.Add(1)
			return e.fw.UpdateFromSentencesCtx(ctx, prev, d, sents)
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
// answers over the frozen eval queries under both backends.
func assertSameAnswers(t *testing.T, got, want *core.Advisor) {
	t.Helper()
	for _, q := range corpus.CUDAQueries() {
		for _, backend := range vsm.Backends() {
			terms := nlp.QueryTerms(q.Text)
			ag, err := got.Retrieve(context.Background(), terms, got.QueryOpts(backend))
			if err != nil {
				t.Fatal(err)
			}
			aw, err := want.Retrieve(context.Background(), terms, want.QueryOpts(backend))
			if err != nil {
				t.Fatal(err)
			}
			if len(ag) != len(aw) {
				t.Fatalf("query %q/%s: %d vs %d answers", q.Text, backend, len(ag), len(aw))
			}
			for i := range aw {
				if ag[i].Sentence != aw[i].Sentence ||
					math.Float64bits(ag[i].Score) != math.Float64bits(aw[i].Score) {
					t.Fatalf("query %q/%s answer %d: %+v vs %+v", q.Text, backend, i, ag[i], aw[i])
				}
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
	if got := g.fullBuilds.Load(); got != 1 { // warm start only
		t.Fatalf("full builds = %d, want 1", got)
	}
	st := m.State()
	if st.IncrementalRebuilds != 1 || st.FullRebuilds != 0 {
		t.Fatalf("rebuild counters: incremental=%d full=%d", st.IncrementalRebuilds, st.FullRebuilds)
	}
	adv := st.Advisors[0]
	if adv.LastMode != "incremental" {
		t.Fatalf("LastMode = %q, want incremental", adv.LastMode)
	}
	if want := float64(119) / 120; adv.LastReuseRatio != want {
		t.Fatalf("LastReuseRatio = %v, want %v", adv.LastReuseRatio, want)
	}

	// the swapped advisor is equivalent to a full build of the same edit
	assertSameAnswers(t, reg.get("cuda"), g.fw.BuildFromSentences(g.d, g.sentences()))
}

func TestFullRebuildAboveThreshold(t *testing.T) {
	g := newEditableGuide("cuda", corpus.CUDA, 60, 53)
	m, _ := incrementalManager(t, nil, g)
	if err := m.WarmStart(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ { // rewrite >30% of the document
		g.setEdit(i, fmt.Sprintf("Rewritten guidance sentence number %d about memory.", i))
	}
	if err := m.ReloadNow(context.Background(), "cuda"); err != nil {
		t.Fatal(err)
	}
	if got := g.updates.Load(); got != 0 {
		t.Fatalf("incremental updates = %d, want 0", got)
	}
	st := m.State()
	if st.FullRebuilds != 1 || st.IncrementalRebuilds != 0 {
		t.Fatalf("rebuild counters: incremental=%d full=%d", st.IncrementalRebuilds, st.FullRebuilds)
	}
	if got := st.Advisors[0].LastMode; got != "full" {
		t.Fatalf("LastMode = %q, want full", got)
	}
}

func TestIncrementalDisabledByNegativeThreshold(t *testing.T) {
	g := newEditableGuide("cuda", corpus.CUDA, 60, 55)
	reg := newFakeRegistry()
	m := lifecycle.New(lifecycle.Options{
		Register:             reg.register,
		Swap:                 reg.swap,
		Metrics:              obs.NewRegistry(),
		IncrementalThreshold: -1,
	})
	if err := m.AddSource(g.source()); err != nil {
		t.Fatal(err)
	}
	if err := m.WarmStart(context.Background()); err != nil {
		t.Fatal(err)
	}
	g.setEdit(3, "Use shared memory tiles to cut redundant global loads.")
	if err := m.ReloadNow(context.Background(), "cuda"); err != nil {
		t.Fatal(err)
	}
	if got := g.updates.Load(); got != 0 {
		t.Fatalf("incremental updates = %d, want 0 (path disabled)", got)
	}
	if st := m.State(); st.FullRebuilds != 1 {
		t.Fatalf("full rebuilds = %d, want 1", st.FullRebuilds)
	}
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
	if got := m2.State().IncrementalRebuilds; got != 1 {
		t.Fatalf("incremental rebuilds = %d, want 1 (warm-started base)", got)
	}
	assertSameAnswers(t, reg.get("cuda"), g.fw.BuildFromSentences(g.d, g.sentences()))
}
