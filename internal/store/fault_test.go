package store_test

import (
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/store"
)

func TestSaveInjectedWriteError(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	adv := smallAdvisor(t, 3)
	if _, err := st.Save("cuda", adv, "", "h1"); err != nil {
		t.Fatal(err)
	}

	inj := fault.New(1)
	inj.Set(fault.StoreWrite, fault.Rule{ErrProb: 1})
	st.SetFaults(inj)
	if _, err := st.Save("cuda", adv, "", "h2"); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("injected write error: %v", err)
	}
	// a clean write failure leaves the previous snapshot intact and loadable
	st.SetFaults(nil)
	if _, man, err := st.Load("cuda", "h1"); err != nil || man.SourceHash != "h1" {
		t.Fatalf("previous snapshot damaged: %v (hash %q)", err, man.SourceHash)
	}
}

func TestSaveTornWriteDetectedOnLoad(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	adv := smallAdvisor(t, 3)
	if _, err := st.Save("cuda", adv, "", "h1"); err != nil {
		t.Fatal(err)
	}

	// torn write: the truncated payload lands, the manifest never updates
	inj := fault.New(1)
	inj.Set(fault.StoreWrite, fault.Rule{PartialProb: 1})
	st.SetFaults(inj)
	adv2 := smallAdvisor(t, 4)
	if _, err := st.Save("cuda", adv2, "", "h2"); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("torn save returned %v", err)
	}
	st.SetFaults(nil)

	// the old manifest now describes different bytes: never trusted-torn,
	// always surfaced as corruption
	_, _, err = st.Load("cuda", "h1")
	if !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("torn snapshot loaded as %v, want ErrCorrupt", err)
	}

	// the standard recovery path heals the name completely
	if err := st.Quarantine("cuda"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Load("cuda", "h2"); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("post-quarantine load: %v, want ErrNotFound", err)
	}
	if _, err := st.Save("cuda", adv2, "", "h2"); err != nil {
		t.Fatal(err)
	}
	if _, man, err := st.Load("cuda", "h2"); err != nil || man.SourceHash != "h2" {
		t.Fatalf("post-recovery load: %v (hash %q)", err, man.SourceHash)
	}
}

func TestLoadInjectedReadError(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save("cuda", smallAdvisor(t, 3), "", "h1"); err != nil {
		t.Fatal(err)
	}
	inj := fault.New(1)
	inj.Set(fault.StoreRead, fault.Rule{ErrProb: 1})
	st.SetFaults(inj)
	if _, _, err := st.Load("cuda", "h1"); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("injected read error surfaced as %v, want ErrCorrupt", err)
	}
	// the bytes on disk were never touched: disabling injection heals
	st.SetFaults(nil)
	if _, _, err := st.Load("cuda", "h1"); err != nil {
		t.Fatalf("load after injection off: %v", err)
	}
}
