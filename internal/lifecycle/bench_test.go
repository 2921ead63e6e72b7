package lifecycle_test

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/lifecycle"
	"repro/internal/obs"
	"repro/internal/store"
)

// fullGuideSources mirrors the production 3-guide registry: one full-size
// synthetic guide per register, fingerprinted by register+seed.
func fullGuideSources() []lifecycle.Source {
	srcs := make([]lifecycle.Source, 0, 3)
	for _, reg := range []corpus.Register{corpus.CUDA, corpus.OpenCL, corpus.XeonPhi} {
		reg := reg
		srcs = append(srcs, lifecycle.Source{
			Name:        reg.String(),
			Fingerprint: func() (string, error) { return fmt.Sprintf("bench:%d:42", reg), nil },
			Build: func(ctx context.Context, prev *core.Advisor) (*core.Advisor, error) {
				g := corpus.Generate(reg, 42)
				return core.New().UpdateFromSentencesCtx(ctx, prev, g.Doc, g.Sentences)
			},
		})
	}
	return srcs
}

// benchManager is a manager over fullGuideSources; register may be nil.
func benchManager(b *testing.B, st *store.Store, register func(string, *core.Advisor)) *lifecycle.Manager {
	b.Helper()
	m := lifecycle.New(lifecycle.Options{
		Store:    st,
		Register: register,
		Metrics:  obs.NewRegistry(),
	})
	for _, s := range fullGuideSources() {
		if err := m.AddSource(s); err != nil {
			b.Fatal(err)
		}
	}
	return m
}

// BenchmarkColdBuild is the baseline: every boot re-runs the Stage-I NLP
// pass for all three guides (no snapshot store). advisor-heap-B is the live
// heap the last boot's three advisors still hold: the live heap after
// forced collections with them, less the live heap after ones without them.
func BenchmarkColdBuild(b *testing.B) {
	var (
		mu       sync.Mutex
		advisors []*core.Advisor
	)
	register := func(_ string, a *core.Advisor) {
		mu.Lock()
		defer mu.Unlock()
		advisors = append(advisors, a)
	}
	for i := 0; i < b.N; i++ {
		advisors = nil
		m := benchManager(b, nil, register)
		if err := m.WarmStart(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if len(advisors) != 3 {
		b.Fatalf("boot registered %d advisors, want 3", len(advisors))
	}
	held := liveHeap()
	runtime.KeepAlive(advisors)
	advisors = nil
	b.ReportMetric(float64(held-liveHeap()), "advisor-heap-B")
}

// liveHeap forces two collections and returns the bytes of heap objects
// the second found live. A sync.Pool's contents (each index's query
// accumulator, which the self-query verifying a build leaves behind) survive
// the first collection in the pool's victim cache, so after one collection
// they were counted or not by GC timing.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// benchReloads warm-starts the 3-guide registry over editable guides, then
// times b.N reloads of the CUDA guide, applying edit(cuda, i) before the
// i'th, and checks that every reload was one update from the serving
// advisor.
func benchReloads(b *testing.B, edit func(cuda *editableGuide, i int)) {
	b.Helper()
	guides := []*editableGuide{
		newEditableGuide("cuda", corpus.CUDA, 0, 42),
		newEditableGuide("opencl", corpus.OpenCL, 0, 42),
		newEditableGuide("xeon", corpus.XeonPhi, 0, 42),
	}
	m := lifecycle.New(lifecycle.Options{
		Register: func(string, *core.Advisor) {},
		Metrics:  obs.NewRegistry(),
	})
	for _, g := range guides {
		if err := m.AddSource(g.source()); err != nil {
			b.Fatal(err)
		}
	}
	if err := m.WarmStart(context.Background()); err != nil {
		b.Fatal(err)
	}
	cuda := guides[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		edit(cuda, i)
		if err := m.ReloadNow(context.Background(), "cuda"); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := cuda.updates.Load(); got != int64(b.N) {
		b.Fatalf("updates = %d, want %d (some reloads built from nothing)", got, b.N)
	}
}

// BenchmarkIncrementalRebuild measures a one-sentence edit on the 3-guide
// registry: each iteration edits a single sentence of the CUDA guide and
// reloads it, so Stage I re-runs over exactly one sentence and the index is
// rebuilt from the kept term counts. The acceptance bar is >= 5x faster
// than BenchmarkColdBuild (which rebuilds all three guides from scratch),
// with answers bit-identical to a cold build (enforced by the equivalence
// suites in core and eval).
func BenchmarkIncrementalRebuild(b *testing.B) {
	benchReloads(b, func(cuda *editableGuide, i int) {
		cuda.setEdit(10, fmt.Sprintf("Coalesce global memory accesses for full bandwidth, revision %d.", i))
	})
}

// BenchmarkRewriteRebuild measures a large edit on the same registry: each
// iteration rewrites 30% of the CUDA guide's 2,140 sentences (change ratio
// 0.6, each rewrite one removal plus one addition) and reloads it as one
// update, so Stage I re-runs over 642 sentences.
func BenchmarkRewriteRebuild(b *testing.B) {
	benchReloads(b, func(cuda *editableGuide, i int) {
		for j := range cuda.base {
			if j%10 < 3 {
				cuda.setEdit(j, fmt.Sprintf("Coalesce global memory accesses for full bandwidth, revision %d of sentence %d.", i, j))
			}
		}
	})
}

// BenchmarkWarmStart boots the same 3-guide registry from a pre-populated
// snapshot store. The acceptance bar is >= 3x faster than BenchmarkColdBuild.
func BenchmarkWarmStart(b *testing.B) {
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	// populate the store once, off the clock
	if err := benchManager(b, st, nil).WarmStart(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := benchManager(b, st, nil)
		if err := m.WarmStart(context.Background()); err != nil {
			b.Fatal(err)
		}
		if got := m.State().SnapshotHits; got != 3 {
			b.Fatalf("warm start had %d snapshot hits, want 3", got)
		}
	}
}
