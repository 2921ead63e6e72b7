package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// fakeClock is a manually advanced clock for walking breaker cooldowns
// without sleeping.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1700000000, 0)} }
func testBreaker(clk *fakeClock, threshold int, cooldown time.Duration) *Breaker {
	b := NewBreaker(threshold, cooldown)
	b.setNow(clk.now)
	return b
}

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

func TestBreakerNilIsClosedNoOp(t *testing.T) {
	var b *Breaker
	if !b.Allow() {
		t.Fatal("nil breaker rejected a call")
	}
	b.Record(true)
	b.Record(false)
	if b.State() != BreakerClosed {
		t.Fatalf("nil breaker state %v", b.State())
	}
}

func TestBreakerTripsAfterThreshold(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk, 3, time.Second)
	for i := 0; i < 2; i++ {
		b.Record(true)
		if got := b.State(); got != BreakerClosed {
			t.Fatalf("after %d failures state %v", i+1, got)
		}
	}
	b.Record(true)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("after threshold state %v", got)
	}
	if b.Allow() {
		t.Fatal("open breaker allowed a call before cooldown")
	}
}

func TestBreakerSuccessResetsFailureStreak(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk, 3, time.Second)
	b.Record(true)
	b.Record(true)
	b.Record(false) // streak broken
	b.Record(true)
	b.Record(true)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("non-consecutive failures tripped the breaker: %v", got)
	}
}

func TestBreakerHalfOpenProbeRecovers(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk, 1, time.Second)
	b.Record(true)
	if b.State() != BreakerOpen {
		t.Fatal("threshold=1 did not trip")
	}
	clk.advance(999 * time.Millisecond)
	if b.Allow() {
		t.Fatal("allowed before cooldown elapsed")
	}
	clk.advance(time.Millisecond)
	if !b.Allow() {
		t.Fatal("cooldown elapsed but probe rejected")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state after probe admission: %v", b.State())
	}
	// only one probe at a time
	if b.Allow() {
		t.Fatal("second concurrent probe admitted")
	}
	b.Record(false) // probe succeeds
	if b.State() != BreakerClosed {
		t.Fatalf("successful probe left state %v", b.State())
	}
	if !b.Allow() {
		t.Fatal("closed breaker rejected a call")
	}
}

func TestBreakerHalfOpenProbeFailureReopens(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk, 1, time.Second)
	b.Record(true)
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("probe rejected")
	}
	b.Record(true) // probe fails
	if b.State() != BreakerOpen {
		t.Fatalf("failed probe left state %v", b.State())
	}
	if b.Allow() {
		t.Fatal("reopened breaker allowed a call without a fresh cooldown")
	}
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("second cooldown did not admit a probe")
	}
}

func TestBreakerOpenIgnoresStragglers(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk, 1, time.Second)
	b.Record(true)
	// calls in flight at trip time report back while open: no state change
	b.Record(false)
	b.Record(true)
	if b.State() != BreakerOpen {
		t.Fatalf("straggler outcomes moved an open breaker to %v", b.State())
	}
}

func TestBreakerTransitionMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	set := newBreakerSet(1, time.Second, reg)
	clk := newFakeClock()
	b := set.get("adv")
	b.setNow(clk.now)
	b.Record(true) // closed -> open
	clk.advance(time.Second)
	b.Allow()       // open -> half-open
	b.Record(false) // half-open -> closed
	if got := reg.Counter("service_breaker_transitions_total").Value(); got != 3 {
		t.Fatalf("transitions counter = %d, want 3", got)
	}
	if got := reg.Gauge(`service_breaker_state{advisor="adv"}`).Value(); got != int64(BreakerClosed) {
		t.Fatalf("state gauge = %d, want closed", got)
	}
}

func TestBreakerSetSnapshotSorted(t *testing.T) {
	set := newBreakerSet(0, 0, obs.NewRegistry())
	set.get("zeta")
	set.get("alpha").Record(true)
	for i := 0; i < DefaultBreakerThreshold; i++ {
		set.get("alpha").Record(true)
	}
	snap := set.snapshot()
	if len(snap) != 2 || snap[0].Advisor != "alpha" || snap[1].Advisor != "zeta" {
		t.Fatalf("snapshot %+v", snap)
	}
	if snap[0].State != "open" || snap[1].State != "closed" {
		t.Fatalf("snapshot states %+v", snap)
	}
}

func TestBreakerFailureClassification(t *testing.T) {
	tests := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{ErrOverloaded, false},
		{context.DeadlineExceeded, true},
		{context.Canceled, true},
		{fault.ErrInjected, true},
		{errors.New("disk on fire"), true},
	}
	for _, tt := range tests {
		if got := breakerFailure(tt.err); got != tt.want {
			t.Errorf("breakerFailure(%v) = %v, want %v", tt.err, got, tt.want)
		}
	}
}

// TestClientErrorsLeaveNoBreakerRecord: a query to an unknown advisor and
// an over-long query are refused before the breaker record is installed,
// so however often they repeat they create no breaker and trip none.
func TestClientErrorsLeaveNoBreakerRecord(t *testing.T) {
	svc, names := newTestServiceWithFaults(t, nil, 1)
	long := strings.Repeat("coalesce ", maxQueryTerms+1)
	for i := 0; i < 3*DefaultBreakerThreshold; i++ {
		if _, _, err := svc.CachedQuery(context.Background(), "nope", "memory coalescing"); !errors.Is(err, ErrUnknownAdvisor) {
			t.Fatalf("query to an unknown advisor: err %v, want ErrUnknownAdvisor", err)
		}
		if _, _, err := svc.CachedQuery(context.Background(), names[0], long); !errors.Is(err, ErrQueryTooLong) {
			t.Fatalf("over-long query: err %v, want ErrQueryTooLong", err)
		}
	}
	if b := svc.Stats().Breakers; len(b) != 0 {
		t.Fatalf("client errors left breaker records: %+v", b)
	}
	if _, _, err := svc.CachedQuery(context.Background(), names[0], "memory coalescing"); err != nil {
		t.Fatal(err)
	}
	if b := svc.Stats().Breakers; len(b) != 1 || b[0] != (BreakerInfo{Advisor: names[0], State: "closed"}) {
		t.Fatalf("breakers after one good query: %+v", b)
	}
}

// TestAskSkipsOpenBreaker drives a breaker open through injected scoring
// faults and checks /v1/ask degrades: the broken advisor lands in the errors
// map, the healthy one still answers, and after Reset + cooldown the probe
// heals the breaker.
func TestAskSkipsOpenBreaker(t *testing.T) {
	inj := fault.New(42)
	svc, names := newTestServiceWithFaults(t, inj, 2)
	if len(names) != 2 {
		t.Fatalf("want 2 advisors, got %v", names)
	}
	clk := newFakeClock()
	for _, n := range names {
		svc.breakers.get(n).setNow(clk.now)
	}

	// trip every advisor: all scoring calls fail
	inj.Set(fault.VSMScore, fault.Rule{ErrProb: 1})
	for i := 0; i < DefaultBreakerThreshold; i++ {
		// distinct queries dodge the cache (errors are never cached, but
		// keep the draws independent anyway)
		_, errs := svc.Ask(context.Background(), fmt.Sprintf("memory coalescing %d", i), 3)
		if len(errs) == 0 {
			t.Fatalf("round %d: fault storm produced no errors", i)
		}
	}
	for _, n := range names {
		if st := svc.breakers.get(n).State(); st != BreakerOpen {
			t.Fatalf("advisor %s breaker %v after storm", n, st)
		}
	}

	// while open, asks skip the advisors entirely and report ErrBreakerOpen
	answers, errs := svc.Ask(context.Background(), "memory coalescing", 3)
	if len(answers) != 0 {
		t.Fatalf("open breakers still produced answers: %v", answers)
	}
	for _, n := range names {
		if errs[n] != ErrBreakerOpen.Error() {
			t.Fatalf("advisor %s error %q, want breaker-open", n, errs[n])
		}
	}

	// faults off + cooldown elapsed: the next ask is the probe and heals
	inj.Reset()
	clk.advance(DefaultBreakerCooldown)
	answers, errs = svc.Ask(context.Background(), "memory coalescing", 3)
	if len(errs) != 0 {
		t.Fatalf("post-recovery errors: %v", errs)
	}
	if len(answers) == 0 {
		t.Fatal("post-recovery ask found no answers")
	}
	for _, n := range names {
		if st := svc.breakers.get(n).State(); st != BreakerClosed {
			t.Fatalf("advisor %s breaker %v after recovery", n, st)
		}
	}
	// /statsz reflects the healed state
	snap := svc.Stats()
	if len(snap.Breakers) != 2 {
		t.Fatalf("stats breakers %+v", snap.Breakers)
	}
	for _, b := range snap.Breakers {
		if b.State != "closed" {
			t.Fatalf("stats breaker %+v", b)
		}
	}
}
