package obs

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("reqs") != c {
		t.Error("Counter not idempotent")
	}
	g := r.Gauge("inflight")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Errorf("gauge = %d, want 5", got)
	}

	var nc *Counter
	nc.Inc()
	nc.Add(3)
	var ng *Gauge
	ng.Set(1)
	ng.Add(1)
	var nh *Histogram
	nh.Observe(1)
	nh.ObserveDuration(time.Second)
	if nc.Value() != 0 || ng.Value() != 0 || nh.Count() != 0 || nh.Sum() != 0 || nh.Quantile(0.5) != 0 {
		t.Error("nil metrics must read as zero")
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", 10, 100, 1000)
	for v := 1; v <= 100; v++ {
		h.Observe(float64(v)) // 1..100: 10 in (..10], 90 in (10..100]
	}
	if h.Count() != 100 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Sum() != 5050 {
		t.Errorf("sum = %v", h.Sum())
	}
	snap := h.snapshot()
	if len(snap.Buckets) != 2 || snap.Buckets[0].Count != 10 || snap.Buckets[1].Count != 90 {
		t.Errorf("buckets = %+v", snap.Buckets)
	}
	if snap.Overflow != 0 {
		t.Errorf("overflow = %d", snap.Overflow)
	}
	// p50 interpolates within (10,100]: rank 50, 40 of 90 into the bucket
	want := 10 + 90*(40.0/90.0)
	if math.Abs(h.Quantile(0.5)-want) > 1e-9 {
		t.Errorf("p50 = %v, want %v", h.Quantile(0.5), want)
	}
	h.Observe(5000) // beyond the last bound
	if h.snapshot().Overflow != 1 {
		t.Errorf("overflow = %d, want 1", h.snapshot().Overflow)
	}
	// quantiles attribute overflow to the last bound rather than inventing values
	if q := h.Quantile(1); q != 1000 {
		t.Errorf("p100 = %v, want 1000", q)
	}
}

func TestHistogramExactBoundLandsInBucket(t *testing.T) {
	h := newHistogram([]float64{10, 100})
	h.Observe(10) // le semantics: exactly 10 belongs to the first bucket
	snap := h.snapshot()
	if len(snap.Buckets) != 1 || snap.Buckets[0].LE != 10 || snap.Buckets[0].Count != 1 {
		t.Errorf("buckets = %+v", snap.Buckets)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := newHistogram(DefaultLatencyBounds)
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(i % 997))
			}
		}()
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Errorf("count = %d, want %d", h.Count(), workers*per)
	}
	var bucketTotal int64
	snap := h.snapshot()
	for _, b := range snap.Buckets {
		bucketTotal += b.Count
	}
	bucketTotal += snap.Overflow
	if bucketTotal != workers*per {
		t.Errorf("bucket total = %d, want %d", bucketTotal, workers*per)
	}
}

func TestRegistrySnapshotAndMetricsHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(3)
	r.Gauge("b").Set(-2)
	r.Histogram("c").ObserveDuration(42 * time.Microsecond)

	rec := httptest.NewRecorder()
	MetricsHandler(r).ServeHTTP(rec, httptest.NewRequest("GET", "/metricz", nil))
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("metricz decode: %v (%s)", err, rec.Body.String())
	}
	if snap.Counters["a"] != 3 || snap.Gauges["b"] != -2 {
		t.Errorf("snapshot = %+v", snap)
	}
	h := snap.Histograms["c"]
	if h.Count != 1 || math.Abs(h.Sum-42) > 1e-9 {
		t.Errorf("histogram snapshot = %+v", h)
	}
}

// TestMetricsHandlerRuntime: /metricz reports the Go runtime's live heap
// and completed collections, read when it is served, and leaves the
// registry without either.
func TestMetricsHandlerRuntime(t *testing.T) {
	r := NewRegistry()
	runtime.GC()
	rec := httptest.NewRecorder()
	MetricsHandler(r).ServeHTTP(rec, httptest.NewRequest("GET", "/metricz", nil))
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("metricz decode: %v (%s)", err, rec.Body.String())
	}
	if got := snap.Gauges["go_heap_live_bytes"]; got <= 0 {
		t.Errorf("go_heap_live_bytes = %d, want > 0", got)
	}
	if got := snap.Counters["go_gc_cycles_total"]; got < 1 {
		t.Errorf("go_gc_cycles_total = %d after a forced collection, want >= 1", got)
	}
	own := r.Snapshot()
	if len(own.Gauges) != 0 || len(own.Counters) != 0 {
		t.Errorf("serving /metricz added metrics to the registry: %+v", own)
	}
}
