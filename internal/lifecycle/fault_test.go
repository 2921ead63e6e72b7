package lifecycle_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/lifecycle"
	"repro/internal/obs"
	"repro/internal/store"
)

func TestSnapshotRetriesOnStoreFaults(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.New(1)
	st.SetFaults(inj)
	reg := newFakeRegistry()
	metrics := obs.NewRegistry()
	src := &buildSource{name: "cuda", seed: 5}
	m := lifecycle.New(lifecycle.Options{
		Store:    st,
		Register: reg.register,
		Swap:     reg.swap,
		Retries:  2,
		Backoff:  time.Millisecond,
		Metrics:  metrics,
	})
	if err := m.AddSource(src.source()); err != nil {
		t.Fatal(err)
	}
	if err := m.WarmStart(context.Background()); err != nil {
		t.Fatal(err)
	}

	// every save fails: the snapshot is retried Retries times, then
	// abandoned — the rebuild itself still succeeds (persistence is not on
	// the serving path)
	inj.Set(fault.StoreWrite, fault.Rule{ErrProb: 1})
	src.setSeed(6)
	if err := m.ReloadNow(context.Background(), "cuda"); err != nil {
		t.Fatalf("rebuild failed on snapshot trouble: %v", err)
	}
	if got := metrics.Counter("lifecycle_store_retries_total").Value(); got != 2 {
		t.Fatalf("store retries = %d, want 2", got)
	}
	if reg.get("cuda") == nil || reg.swapCount() != 1 {
		t.Fatalf("advisor not swapped despite snapshot failure")
	}

	// injection off: the next rebuild persists cleanly, no extra retries
	inj.Reset()
	src.setSeed(7)
	if err := m.ReloadNow(context.Background(), "cuda"); err != nil {
		t.Fatal(err)
	}
	if got := metrics.Counter("lifecycle_store_retries_total").Value(); got != 2 {
		t.Fatalf("clean save still retried: %d", got)
	}
	fp, err := src.source().Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if _, man, err := st.Load("cuda", fp); err != nil || man.Advisor != "cuda" {
		t.Fatalf("post-recovery snapshot missing: %v", err)
	}
}

func TestRebuildInjectedFaultExhaustsRetries(t *testing.T) {
	inj := fault.New(1)
	inj.Set(fault.LifecycleRebuild, fault.Rule{ErrProb: 1})
	reg := newFakeRegistry()
	src := &buildSource{name: "cuda", seed: 5}
	m := lifecycle.New(lifecycle.Options{
		Register: reg.register,
		Swap:     reg.swap,
		Retries:  1,
		Backoff:  time.Millisecond,
		Fault:    inj,
		Metrics:  obs.NewRegistry(),
	})
	if err := m.AddSource(src.source()); err != nil {
		t.Fatal(err)
	}
	err := m.ReloadNow(context.Background(), "cuda")
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("rebuild under full fault injection: %v, want ErrInjected", err)
	}
	if src.builds.Load() != 0 {
		t.Fatalf("injected rebuild faults still ran %d builds", src.builds.Load())
	}
	state := m.State()
	if state.Advisors[0].LastError == "" {
		t.Fatal("exhausted rebuild left no last_error on /statsz")
	}

	// injection off: the same manager heals on the next explicit reload
	inj.Reset()
	if err := m.ReloadNow(context.Background(), "cuda"); err != nil {
		t.Fatal(err)
	}
	if reg.get("cuda") == nil {
		t.Fatal("post-recovery reload did not install the advisor")
	}
	if st := m.State(); st.Advisors[0].LastError != "" {
		t.Fatalf("recovered rebuild left stale last_error %q", st.Advisors[0].LastError)
	}
}
