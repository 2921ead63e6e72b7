package service

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// newTestServiceWithFaults builds a Service over n copies of the shared e2e
// advisor with a private metrics registry and the given injector wired in.
func newTestServiceWithFaults(t testing.TB, inj *fault.Injector, n int) (*Service, []string) {
	t.Helper()
	reg := NewRegistry()
	names := make([]string, 0, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("adv%d", i)
		reg.Add(name, e2eAdvisor(t))
		names = append(names, name)
	}
	return New(reg, Options{Fault: inj, Metrics: obs.NewRegistry()}), names
}

// TestHungUpLookupsLeaveAskIntact: lookups whose client has hung up say
// nothing about the advisor, so after five of them the next ask still
// answers from every advisor, with no errors. Scoring is slowed so that
// each hung-up lookup returns before its compute does.
func TestHungUpLookupsLeaveAskIntact(t *testing.T) {
	inj := fault.New(1)
	svc, names := newTestServiceWithFaults(t, inj, 2)
	words := guideWords(t, e2eAdvisor(t), 5)
	inj.Set(fault.VSMScore, fault.Rule{Latency: 20 * time.Millisecond})
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	for _, w := range words {
		if _, _, err := svc.CachedQuery(gone, names[0], "reduce memory latency "+w); !errors.Is(err, context.Canceled) {
			t.Fatalf("lookup after the client hung up: err %v, want context.Canceled", err)
		}
	}
	inj.Reset()
	answers, errs, err := svc.Ask(context.Background(), "memory coalescing", 3)
	if err != nil || len(errs) != 0 {
		t.Fatalf("ask after hung-up lookups: %v, advisor errors %v", err, errs)
	}
	by := map[string]int{}
	for _, a := range answers {
		by[a.Advisor]++
	}
	for _, n := range names {
		if by[n] == 0 {
			t.Errorf("advisor %s did not answer: %v", n, by)
		}
	}
}

// TestAskUnderScoringFaults: every advisor is asked every time. With
// scoring failing, each one is named in the errors map with its own error;
// once the faults stop, the next ask answers with no errors.
func TestAskUnderScoringFaults(t *testing.T) {
	inj := fault.New(42)
	svc, names := newTestServiceWithFaults(t, inj, 2)
	inj.Set(fault.VSMScore, fault.Rule{ErrProb: 1})
	answers, errs, err := svc.Ask(context.Background(), "memory coalescing", 3)
	if err != nil || len(answers) != 0 {
		t.Fatalf("ask under scoring faults: %v, %d answers", err, len(answers))
	}
	want := fmt.Errorf("%w at %s", fault.ErrInjected, fault.VSMScore).Error()
	for _, n := range names {
		if errs[n] != want {
			t.Errorf("advisor %s error %q, want %q", n, errs[n], want)
		}
	}

	inj.Reset()
	answers, errs, err = svc.Ask(context.Background(), "memory coalescing", 3)
	if err != nil || len(errs) != 0 || len(answers) == 0 {
		t.Fatalf("ask after recovery: %v, errors %v, %d answers", err, errs, len(answers))
	}
}
