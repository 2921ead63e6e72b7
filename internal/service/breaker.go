package service

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Per-advisor circuit breakers keep one slow or failing advisor from
// stalling the federation fan-out: /v1/ask skips advisors whose breaker is
// open (reporting them in the errors map) instead of burning the request
// budget timing out against them, and a half-open probe lets the advisor
// back in once it answers again.
//
// The state machine is the classic three states:
//
//	closed    -> open       after Threshold consecutive infrastructure
//	                        failures (timeouts, internal errors — never
//	                        client mistakes like an unknown advisor)
//	open      -> half-open  after Cooldown, admitting exactly one probe
//	half-open -> closed     when the probe succeeds
//	half-open -> open       when the probe fails (cooldown restarts)
//
// Every transition increments service_breaker_transitions_total and the
// per-advisor state gauge service_breaker_state{advisor=...} tracks the
// current state (0 closed, 1 open, 2 half-open) on /metricz.

// BreakerState enumerates the circuit breaker states.
type BreakerState int32

const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String returns the state name as used on /statsz and in spans.
func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Default breaker tuning: open after 5 consecutive failures, try a probe
// after 2s. Both are per-advisor and configurable via Options.
const (
	DefaultBreakerThreshold = 5
	DefaultBreakerCooldown  = 2 * time.Second
)

// ErrBreakerOpen: the advisor's circuit breaker is open and the call was
// skipped without attempting retrieval.
var ErrBreakerOpen = errors.New("service: circuit breaker open")

// Breaker is one advisor's circuit breaker. All methods are safe for
// concurrent use; a nil *Breaker is a valid always-closed no-op, so callers
// without breaker wiring pay one nil check.
type Breaker struct {
	mu          sync.Mutex
	state       BreakerState
	failures    int // consecutive infrastructure failures while closed
	threshold   int
	cooldown    time.Duration
	openedAt    time.Time
	probing     bool // a half-open probe is in flight
	now         func() time.Time
	transitions *obs.Counter
	stateGauge  *obs.Gauge
}

// NewBreaker creates a closed breaker. threshold <= 0 and cooldown <= 0
// select the defaults.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold <= 0 {
		threshold = DefaultBreakerThreshold
	}
	if cooldown <= 0 {
		cooldown = DefaultBreakerCooldown
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// setNow installs a fake clock — the hook deterministic tests use to walk
// the cooldown without sleeping.
func (b *Breaker) setNow(f func() time.Time) {
	b.mu.Lock()
	b.now = f
	b.mu.Unlock()
}

func (b *Breaker) setState(s BreakerState) {
	if b.state == s {
		return
	}
	b.state = s
	b.transitions.Inc()
	b.stateGauge.Set(int64(s))
}

// Allow reports whether a call may proceed. While open it returns false
// until the cooldown elapses, at which point the breaker turns half-open
// and admits exactly one probe; further calls are rejected until that probe
// reports back through Record.
func (b *Breaker) Allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.setState(BreakerHalfOpen)
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Record reports a call outcome: failure=true for infrastructure failures
// (see breakerFailure), false for successes. Client errors should not be
// recorded at all.
func (b *Breaker) Record(failure bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		if !failure {
			b.failures = 0
			return
		}
		b.failures++
		if b.failures >= b.threshold {
			b.setState(BreakerOpen)
			b.openedAt = b.now()
		}
	case BreakerHalfOpen:
		b.probing = false
		if failure {
			b.setState(BreakerOpen)
			b.openedAt = b.now()
			b.failures = b.threshold
		} else {
			b.setState(BreakerClosed)
			b.failures = 0
		}
	default: // open: a straggler from before the trip; the cooldown decides
	}
}

// State returns the current state without advancing the machine.
func (b *Breaker) State() BreakerState {
	if b == nil {
		return BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// breakerSet is the per-advisor breaker table, created lazily on first use
// so hot swaps and late registrations need no extra wiring. Every query
// reads it, so the table is copy-on-write: a lookup loads one pointer and
// takes no lock, and only the first use of an advisor copies the map.
type breakerSet struct {
	mu        sync.Mutex // serialises the copy-on-write additions
	m         atomic.Pointer[map[string]*Breaker]
	threshold int
	cooldown  time.Duration
	metrics   *obs.Registry
}

func newBreakerSet(threshold int, cooldown time.Duration, metrics *obs.Registry) *breakerSet {
	s := &breakerSet{threshold: threshold, cooldown: cooldown, metrics: metrics}
	s.m.Store(&map[string]*Breaker{})
	return s
}

// get returns the advisor's breaker, creating it closed on first use.
func (s *breakerSet) get(advisor string) *Breaker {
	if b, ok := (*s.m.Load())[advisor]; ok {
		return b
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	old := *s.m.Load()
	if b, ok := old[advisor]; ok {
		return b
	}
	b := NewBreaker(s.threshold, s.cooldown)
	b.transitions = s.metrics.Counter("service_breaker_transitions_total")
	b.stateGauge = s.metrics.Gauge(`service_breaker_state{advisor="` + advisor + `"}`)
	next := make(map[string]*Breaker, len(old)+1)
	for name, ob := range old {
		next[name] = ob
	}
	next[advisor] = b
	s.m.Store(&next)
	return b
}

// snapshot returns the per-advisor breaker states, sorted by advisor name —
// the /statsz view.
func (s *breakerSet) snapshot() []BreakerInfo {
	m := *s.m.Load()
	out := make([]BreakerInfo, 0, len(m))
	for name, b := range m {
		out = append(out, BreakerInfo{Advisor: name, State: b.State().String()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Advisor < out[j].Advisor })
	return out
}

// BreakerInfo is one advisor's breaker state on /statsz.
type BreakerInfo struct {
	Advisor string `json:"advisor"`
	State   string `json:"state"`
}

// breakerFailure classifies an error for the breaker: any error but
// admission shedding (the server as a whole is overloaded, not this
// advisor) is an infrastructure failure — a timeout, a cancellation, an
// injected fault, anything unexpected. Client mistakes never get here:
// cachedQuery refuses an unknown advisor or an over-long query before it
// installs the breaker record.
func breakerFailure(err error) bool {
	return err != nil && !errors.Is(err, ErrOverloaded)
}
