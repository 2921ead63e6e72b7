// Package fault is Egeria's deterministic fault-injection layer: named
// fault points threaded through the store, lifecycle, and serving paths
// that can inject errors, added latency, or torn (partial) writes with
// configurable probability.
//
// Determinism is the design constraint: every draw comes from one seeded
// PRNG, so a chaos run with a fixed seed injects the same fault sequence
// every time — failures found under -race reproduce exactly. There is no
// wall-clock randomness anywhere in the package.
//
// Cost when disabled is the other constraint. Components hold a plain
// *Injector that is nil in production unless the -fault dev flag is set,
// and every method is nil-receiver safe, so an uninstrumented process pays
// one nil check per fault point — the same pattern as the obs spans.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Point names one place where a fault can be injected. The catalog is
// deliberately small and stable: chaos suites enable every point by name,
// and DESIGN.md §12 documents what each one simulates.
type Point string

// The registered fault points.
const (
	// StoreWrite covers snapshot persistence: a clean write error, or a
	// torn write (payload truncated, manifest never updated — the crash
	// window the store's payload-before-manifest ordering protects).
	StoreWrite Point = "store.write"
	// StoreRead covers snapshot loading: a read error, surfaced by the
	// store as corruption (exactly what a real I/O error looks like).
	StoreRead Point = "store.read"
	// NLPAnnotate covers query-side annotation in the serving path.
	NLPAnnotate Point = "nlp.annotate"
	// VSMScore covers Stage-II retrieval scoring in the serving path.
	VSMScore Point = "vsm.score"
	// ServiceHandler covers the HTTP handler entry: the whole request
	// fails with a 500 before reaching its route.
	ServiceHandler Point = "service.handler"
	// LifecycleRebuild covers background rebuilds: the build attempt fails
	// before running, exercising the retry-with-backoff machinery.
	LifecycleRebuild Point = "lifecycle.rebuild"
)

// Points returns the full fault-point catalog, sorted.
func Points() []Point {
	return []Point{
		LifecycleRebuild, NLPAnnotate, ServiceHandler, StoreRead, StoreWrite, VSMScore,
	}
}

// validPoint reports whether p is in the catalog.
func validPoint(p Point) bool {
	for _, q := range Points() {
		if p == q {
			return true
		}
	}
	return false
}

// ErrInjected is the error every injected failure wraps; callers and tests
// distinguish synthetic faults from organic errors with errors.Is.
var ErrInjected = errors.New("fault: injected error")

// Rule configures one fault point. The zero Rule injects nothing.
type Rule struct {
	// ErrProb is the probability (0..1) that Err returns an injected error.
	ErrProb float64
	// Latency is added before Err returns (error or not) with probability
	// LatencyProb. Zero LatencyProb with nonzero Latency means always.
	Latency     time.Duration
	LatencyProb float64
	// PartialProb is the probability (0..1) that Mangle truncates a write,
	// simulating a crash mid-flush.
	PartialProb float64
}

func (r Rule) active() bool {
	return r.ErrProb > 0 || (r.Latency > 0 && r.LatencyProb >= 0) || r.PartialProb > 0
}

// String renders the rule in the -fault spec grammar.
func (r Rule) String() string {
	var parts []string
	if r.ErrProb > 0 {
		parts = append(parts, fmt.Sprintf("err=%g", r.ErrProb))
	}
	if r.Latency > 0 {
		p := r.LatencyProb
		if p <= 0 || p >= 1 {
			parts = append(parts, fmt.Sprintf("lat=%s", r.Latency))
		} else {
			parts = append(parts, fmt.Sprintf("lat=%s@%g", r.Latency, p))
		}
	}
	if r.PartialProb > 0 {
		parts = append(parts, fmt.Sprintf("partial=%g", r.PartialProb))
	}
	return strings.Join(parts, ";")
}

// Injector draws faults for a set of points from one seeded PRNG. All
// methods are safe for concurrent use and nil-receiver safe: a nil
// *Injector injects nothing and costs one nil check per call.
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rules map[Point]Rule
	hits  map[Point]int64 // injected faults per point (errors + latency + mangles)
	sleep func(time.Duration)
}

// New creates an Injector with the given PRNG seed and no rules.
func New(seed int64) *Injector {
	return &Injector{
		rng:   rand.New(rand.NewSource(seed)),
		rules: map[Point]Rule{},
		hits:  map[Point]int64{},
		sleep: time.Sleep,
	}
}

// SetSleep replaces the latency sleeper — tests use it to count injected
// delays without slowing the suite down.
func (in *Injector) SetSleep(f func(time.Duration)) {
	if in == nil || f == nil {
		return
	}
	in.mu.Lock()
	in.sleep = f
	in.mu.Unlock()
}

// Set installs (or, with a zero Rule, removes) the rule for one point.
func (in *Injector) Set(p Point, r Rule) {
	if in == nil {
		return
	}
	in.mu.Lock()
	if r.active() {
		in.rules[p] = r
	} else {
		delete(in.rules, p)
	}
	in.mu.Unlock()
}

// Reset removes every rule, turning injection off while preserving the hit
// counts — chaos suites call it to verify recovery after a fault storm.
func (in *Injector) Reset() {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.rules = map[Point]Rule{}
	in.mu.Unlock()
}

// Active reports whether any point currently has a rule.
func (in *Injector) Active() bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.rules) > 0
}

// Err draws one fault for p: it may sleep the configured latency, and
// returns an error wrapping ErrInjected with probability ErrProb. A nil
// injector or an unconfigured point returns nil immediately.
func (in *Injector) Err(p Point) error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	r, ok := in.rules[p]
	if !ok {
		in.mu.Unlock()
		return nil
	}
	var delay time.Duration
	if r.Latency > 0 && (r.LatencyProb <= 0 || r.LatencyProb >= 1 || in.rng.Float64() < r.LatencyProb) {
		delay = r.Latency
	}
	fail := r.ErrProb > 0 && in.rng.Float64() < r.ErrProb
	if delay > 0 || fail {
		in.hits[p]++
	}
	sleep := in.sleep
	in.mu.Unlock()
	if delay > 0 {
		sleep(delay)
	}
	if fail {
		return fmt.Errorf("%w at %s", ErrInjected, p)
	}
	return nil
}

// Mangle draws a partial-write fault for p: with probability PartialProb it
// returns a truncated copy of data (at least one byte shorter, possibly
// empty) and true, simulating the bytes a crash mid-flush leaves behind.
// Otherwise — including for a nil injector — it returns data unchanged.
func (in *Injector) Mangle(p Point, data []byte) ([]byte, bool) {
	if in == nil || len(data) == 0 {
		return data, false
	}
	in.mu.Lock()
	r, ok := in.rules[p]
	if !ok || r.PartialProb <= 0 || in.rng.Float64() >= r.PartialProb {
		in.mu.Unlock()
		return data, false
	}
	n := in.rng.Intn(len(data)) // 0..len-1: always strictly truncated
	in.hits[p]++
	in.mu.Unlock()
	return append([]byte(nil), data[:n]...), true
}

// Hits returns how many faults have been injected per point since New.
func (in *Injector) Hits() map[Point]int64 {
	out := map[Point]int64{}
	if in == nil {
		return out
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for p, n := range in.hits {
		out[p] = n
	}
	return out
}

// String renders the current rules in the spec grammar, sorted by point.
func (in *Injector) String() string {
	if in == nil {
		return ""
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	points := make([]string, 0, len(in.rules))
	for p := range in.rules {
		points = append(points, string(p))
	}
	sort.Strings(points)
	var parts []string
	for _, p := range points {
		parts = append(parts, p+":"+in.rules[Point(p)].String())
	}
	return strings.Join(parts, ",")
}

// Parse builds an Injector from a -fault spec. The grammar is a comma
// list of entries, each POINT:SETTING[;SETTING...]:
//
//	err=P          inject an error with probability P
//	lat=D[@P]      add latency D (a time.Duration) with probability P (default 1)
//	partial=P      truncate a write with probability P (store.write only)
//
// The pseudo-point "all" applies an entry to every point in the catalog.
// An empty spec returns a nil injector — injection fully off. The
// injector's PRNG is seeded with 1, so one spec injects one fault sequence.
//
//	-fault 'all:err=0.1'
//	-fault 'store.write:err=0.2;partial=0.3,vsm.score:lat=5ms@0.5'
func Parse(spec string) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	in := New(1)
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, settings, ok := strings.Cut(entry, ":")
		if !ok {
			return nil, fmt.Errorf("fault: entry %q needs POINT:SETTINGS", entry)
		}
		var targets []Point
		if name == "all" {
			targets = Points()
		} else {
			p := Point(name)
			if !validPoint(p) {
				return nil, fmt.Errorf("fault: unknown point %q (want one of %v or all)", name, Points())
			}
			targets = []Point{p}
		}
		r, err := parseRule(settings)
		if err != nil {
			return nil, fmt.Errorf("fault: entry %q: %w", entry, err)
		}
		for _, p := range targets {
			in.mu.Lock()
			merged := in.rules[p]
			if r.ErrProb > 0 {
				merged.ErrProb = r.ErrProb
			}
			if r.Latency > 0 {
				merged.Latency, merged.LatencyProb = r.Latency, r.LatencyProb
			}
			if r.PartialProb > 0 {
				merged.PartialProb = r.PartialProb
			}
			in.rules[p] = merged
			in.mu.Unlock()
		}
	}
	return in, nil
}

// parseRule parses the ";"-separated settings of one spec entry.
func parseRule(settings string) (Rule, error) {
	var r Rule
	for _, s := range strings.Split(settings, ";") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		key, val, ok := strings.Cut(s, "=")
		if !ok {
			return Rule{}, fmt.Errorf("setting %q needs KEY=VALUE", s)
		}
		switch key {
		case "err", "partial":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p < 0 || p > 1 {
				return Rule{}, fmt.Errorf("%s wants a probability in [0,1], got %q", key, val)
			}
			if key == "err" {
				r.ErrProb = p
			} else {
				r.PartialProb = p
			}
		case "lat":
			dur, prob := val, ""
			if at := strings.LastIndex(val, "@"); at >= 0 {
				dur, prob = val[:at], val[at+1:]
			}
			d, err := time.ParseDuration(dur)
			if err != nil || d <= 0 {
				return Rule{}, fmt.Errorf("lat wants a positive duration, got %q", dur)
			}
			r.Latency, r.LatencyProb = d, 1
			if prob != "" {
				p, err := strconv.ParseFloat(prob, 64)
				if err != nil || p < 0 || p > 1 {
					return Rule{}, fmt.Errorf("lat@ wants a probability in [0,1], got %q", prob)
				}
				r.LatencyProb = p
			}
		default:
			return Rule{}, fmt.Errorf("unknown setting %q (want err, lat, partial)", key)
		}
	}
	if !r.active() {
		return Rule{}, errors.New("entry configures nothing")
	}
	return r, nil
}
