package obs

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"slices"
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
	h := r.Histogram("lat")
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.Quantile(1) != 0 {
		t.Error("an empty histogram must read as zero")
	}
	for v := 1; v <= 100; v++ {
		h.Observe(float64(v))
	}
	if h.Count() != 100 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Sum() != 5050 {
		t.Errorf("sum = %v", h.Sum())
	}
	snap := h.snapshot()
	// bucket k holds (2^((k-1)/4), 2^(k/4)]
	want := map[float64]int64{
		1:                  1,  // {1}
		2:                  1,  // (1.68, 2]: {2}
		64:                 11, // (53.8, 64]: 54..64
		math.Exp2(27 / 4.): 10, // (90.5, 107.6]: 91..100
	}
	var total int64
	for _, b := range snap.Buckets {
		total += b.Count
		if n, ok := want[b.LE]; ok && n != b.Count {
			t.Errorf("bucket le=%v holds %d, want %d", b.LE, b.Count, n)
		}
		delete(want, b.LE)
	}
	if len(want) != 0 || total != 100 || snap.Overflow != 0 {
		t.Errorf("buckets = %+v (missing %v), overflow %d", snap.Buckets, want, snap.Overflow)
	}
	// p50: rank 50 falls in (2^(22/4), 2^(23/4)], which holds 46..53 after
	// 45 smaller values, so the estimate is 5/8 of the way through it
	lower, upper := math.Exp2(22/4.), math.Exp2(23/4.)
	if got, want := h.Quantile(0.5), lower+(upper-lower)*5/8; math.Abs(got-want) > 1e-9 {
		t.Errorf("p50 = %v, want %v", got, want)
	}
	h.Observe(1e7) // beyond the last bound
	if h.snapshot().Overflow != 1 {
		t.Errorf("overflow = %d, want 1", h.snapshot().Overflow)
	}
	// quantiles attribute overflow to the last bound rather than inventing values
	if q, last := h.Quantile(1), math.Exp2(90/4.); q != last {
		t.Errorf("p100 = %v, want %v", q, last)
	}
}

func TestHistogramExactBoundLandsInBucket(t *testing.T) {
	var h Histogram
	h.Observe(2)                       // le semantics: exactly 2 belongs to the bucket ending at 2
	h.Observe(math.Nextafter(2, 3))    // the next float above it does not
	h.Observe(math.Nextafter(1024, 0)) // nor does the float below 1024
	snap := h.snapshot()
	want := []BucketCount{{LE: 2, Count: 1}, {LE: math.Exp2(5 / 4.), Count: 1}, {LE: 1024, Count: 1}}
	if !slices.Equal(snap.Buckets, want) {
		t.Errorf("buckets = %+v, want %+v", snap.Buckets, want)
	}
}

// TestQuantileNearestRankProperty: over seeded samples between 1 µs and
// 1 s, Quantile(p) lies in the bucket of the nearest-rank sample (rank
// ceil(p·n), the smallest sample for p = 0), so it is within 2^(1/4)-1 of
// that sample.
func TestQuantileNearestRankProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tol := math.Exp2(0.25) - 1
	for round := 0; round < 200; round++ {
		n := 1 + rng.Intn(2000)
		if round < 10 {
			n = round + 1 // the smallest counts first, from a single sample
		}
		center, spread := 6*rng.Float64(), 2*rng.Float64() // log10 µs
		var h Histogram
		samples := make([]float64, n)
		for i := range samples {
			v := math.Pow(1e6, 1-rng.Float64()) // log-uniform over (1 µs, 1 s]
			if round%2 == 1 {
				// clustered, so many samples share a bucket
				v = math.Min(1e6, math.Max(1+1e-9, math.Pow(10, center+spread*rng.NormFloat64())))
			}
			samples[i] = v
			h.Observe(v)
		}
		slices.Sort(samples)
		for _, p := range []float64{0, 0.5, 0.9, 0.99, 1} {
			want := samples[max(int(math.Ceil(p*float64(n)))-1, 0)]
			if got := h.Quantile(p); math.Abs(got-want) > tol*want {
				t.Fatalf("round %d, n=%d: p%v = %v, nearest rank %v (off by %.1f%%)",
					round, n, p*100, got, want, 100*math.Abs(got-want)/want)
			}
		}
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
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
