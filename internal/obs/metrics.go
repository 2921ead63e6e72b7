package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. A nil *Counter is a valid
// no-op, so components can hold optional counters without branching.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored; counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. A nil *Gauge is a valid no-op.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add applies a delta.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// numBounds is the number of finite histogram bucket upper bounds.
const numBounds = 91

// bounds are the bucket upper bounds every histogram shares, in
// microseconds: 2^(k/4) for k = 0…90, four per power of two from 1 µs to
// about 5.9 s. Neighbouring bounds differ by a factor of 2^(1/4), so above
// 1 µs a quantile interpolated inside a bucket is within 2^(1/4)-1 (about
// 19%) of any sample in that bucket. Values above the last bound land in an
// overflow bucket.
var bounds = func() (b [numBounds]float64) {
	for k := range b {
		b[k] = math.Exp2(float64(k) / 4)
	}
	return b
}()

// Histogram is a histogram over the shared bucket bounds. The zero value
// is empty and ready to use. All methods are safe for concurrent use and
// nil-receiver safe.
type Histogram struct {
	buckets [numBounds + 1]atomic.Int64 // the last is the overflow bucket
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the running sum
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(bounds[:], v) // first bound >= v
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a latency in microseconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(float64(d.Nanoseconds()) / 1e3)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Quantile estimates the p-quantile (0 <= p <= 1) by linear interpolation
// within the bucket that holds the nearest-rank sample (rank ceil(p·n)), so
// the estimate and that sample share a bucket; 0 when empty. A quantile in
// the overflow bucket reads as the last bound.
func (h *Histogram) Quantile(p float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := p * float64(total)
	var seen float64
	for i, upper := range bounds[:] {
		n := float64(h.buckets[i].Load())
		if n > 0 && seen+n >= rank {
			lower := 0.0
			if i > 0 {
				lower = bounds[i-1]
			}
			return lower + (upper-lower)*min(max((rank-seen)/n, 0), 1)
		}
		seen += n
	}
	return bounds[numBounds-1]
}

// snapshot exports the histogram under no lock; counts are read atomically
// so totals are consistent to within in-flight observations.
func (h *Histogram) snapshot() HistogramSnapshot {
	snap := HistogramSnapshot{
		Count:    h.Count(),
		Sum:      h.Sum(),
		Overflow: h.buckets[numBounds].Load(),
		P50:      h.Quantile(0.50),
		P99:      h.Quantile(0.99),
	}
	for i, b := range bounds[:] {
		if n := h.buckets[i].Load(); n > 0 {
			snap.Buckets = append(snap.Buckets, BucketCount{LE: b, Count: n})
		}
	}
	return snap
}

// BucketCount is one non-empty histogram bucket in a snapshot.
type BucketCount struct {
	LE    float64 `json:"le"` // bucket upper bound
	Count int64   `json:"count"`
}

// HistogramSnapshot is the exported form of a histogram (the /metricz
// shape). Empty buckets are omitted.
type HistogramSnapshot struct {
	Count    int64         `json:"count"`
	Sum      float64       `json:"sum"`
	P50      float64       `json:"p50"`
	P99      float64       `json:"p99"`
	Buckets  []BucketCount `json:"buckets,omitempty"`
	Overflow int64         `json:"overflow,omitempty"`
}

// Registry names and owns metrics. Lookups are get-or-create, so callers
// can resolve handles at construction time and pay only atomic ops after.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry, used by components that are not
// handed an explicit one (package-level pipeline metrics).
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot is the JSON shape served on /metricz.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot exports every metric's current value.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	snap := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		snap.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		snap.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		snap.Histograms[name] = h.snapshot()
	}
	return snap
}
