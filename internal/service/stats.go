package service

import (
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/lifecycle"
	"repro/internal/obs"
)

// latencyRingSize is how many recent request latencies each ring retains for
// percentile estimation. A power of two keeps the modulo cheap.
const latencyRingSize = 1024

// latencyRing is a fixed-size ring of recent latencies. Percentiles are
// computed over whatever the ring currently holds — an estimate over the
// last latencyRingSize requests, which is exactly what an operations
// dashboard wants from /statsz. The obs histograms complement it: they
// cover every request since process start, at bucket resolution.
type latencyRing struct {
	mu     sync.Mutex
	buf    [latencyRingSize]time.Duration
	next   int
	filled int
}

func (r *latencyRing) record(d time.Duration) {
	r.mu.Lock()
	r.buf[r.next] = d
	r.next = (r.next + 1) % latencyRingSize
	if r.filled < latencyRingSize {
		r.filled++
	}
	r.mu.Unlock()
}

// percentiles returns the p-quantiles (0 <= p <= 1) of the ring's contents
// by the nearest-rank method (ceil(p*n), 1-indexed), zero when empty.
// Truncating instead of rounding the rank reads the wrong sample for high
// quantiles — int(0.99*(1024-1)) lands on index 1012 where nearest-rank
// p99 over 1024 samples is index 1013.
func (r *latencyRing) percentiles(ps ...float64) []time.Duration {
	r.mu.Lock()
	snap := make([]time.Duration, r.filled)
	copy(snap, r.buf[:r.filled])
	r.mu.Unlock()
	out := make([]time.Duration, len(ps))
	if len(snap) == 0 {
		return out
	}
	sort.Slice(snap, func(i, j int) bool { return snap[i] < snap[j] })
	for i, p := range ps {
		idx := int(math.Ceil(p*float64(len(snap)))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(snap) {
			idx = len(snap) - 1
		}
		out[i] = snap[idx]
	}
	return out
}

// Stats aggregates the service's operational counters. The counters and
// histograms live in an obs.Registry, so /metricz exposes exactly the
// values /statsz reports — the two views reconcile by construction. All
// fields are safe for concurrent use; snapshot produces the /statsz view.
type Stats struct {
	requests  *obs.Counter // requests entering any /v1 handler
	hits      *obs.Counter // cache hits (incl. single-flight shared results)
	misses    *obs.Counter // cache misses that ran retrieval
	evictions *obs.Counter // LRU evictions
	rejected  *obs.Counter // 429s from admission control
	timeouts  *obs.Counter // requests (batch items, ask legs) that ended on their deadline, queued or computing
	errors5xx *obs.Counter // responses with status >= 500
	inFlight  *obs.Gauge   // requests currently inside a /v1 handler

	batches    *obs.Counter // /v1/batch requests answered
	batchItems *obs.Counter // queries answered inside batches
	asks       *obs.Counter // /v1/ask federated queries answered

	queryRing  latencyRing // latency of /v1/{advisor}/query (last 1024)
	reportRing latencyRing // latency of /v1/{advisor}/report (last 1024)
	batchRing  latencyRing // latency of /v1/batch (last 1024)
	askRing    latencyRing // latency of /v1/ask (last 1024)

	queryHist  *obs.Histogram // latency of every query since process start
	reportHist *obs.Histogram // latency of every report since process start
	batchHist  *obs.Histogram // latency of every batch since process start
	askHist    *obs.Histogram // latency of every federated ask since start
}

// newStats wires a Stats into reg under the service_* metric names.
// Creating two services over the same registry makes them share counters;
// give each its own registry when separate accounting matters.
func newStats(reg *obs.Registry) *Stats {
	return &Stats{
		requests:   reg.Counter("service_requests_total"),
		hits:       reg.Counter("service_cache_hits_total"),
		misses:     reg.Counter("service_cache_misses_total"),
		evictions:  reg.Counter("service_cache_evictions_total"),
		rejected:   reg.Counter("service_rejected_total"),
		timeouts:   reg.Counter("service_timeouts_total"),
		errors5xx:  reg.Counter("service_errors_5xx_total"),
		inFlight:   reg.Gauge("service_in_flight"),
		batches:    reg.Counter("service_batches_total"),
		batchItems: reg.Counter("service_batch_items_total"),
		asks:       reg.Counter("service_asks_total"),
		queryHist:  reg.Histogram("service_query_latency_micros"),
		reportHist: reg.Histogram("service_report_latency_micros"),
		batchHist:  reg.Histogram("service_batch_latency_micros"),
		askHist:    reg.Histogram("service_ask_latency_micros"),
	}
}

// recordQuery records one /v1/{advisor}/query latency in both views.
func (s *Stats) recordQuery(d time.Duration) {
	s.queryRing.record(d)
	s.queryHist.ObserveDuration(d)
}

// recordReport records one /v1/{advisor}/report latency in both views.
func (s *Stats) recordReport(d time.Duration) {
	s.reportRing.record(d)
	s.reportHist.ObserveDuration(d)
}

// recordBatch records one /v1/batch latency and its item count.
func (s *Stats) recordBatch(d time.Duration, items int) {
	s.batches.Add(1)
	s.batchItems.Add(int64(items))
	s.batchRing.record(d)
	s.batchHist.ObserveDuration(d)
}

// recordAsk records one /v1/ask federated-query latency.
func (s *Stats) recordAsk(d time.Duration) {
	s.asks.Add(1)
	s.askRing.record(d)
	s.askHist.ObserveDuration(d)
}

// StatsSnapshot is the JSON shape served on /statsz.
type StatsSnapshot struct {
	Requests    int64 `json:"requests"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	Evictions   int64 `json:"evictions"`
	Rejected    int64 `json:"rejected"`
	Timeouts    int64 `json:"timeouts"`
	Errors5xx   int64 `json:"errors_5xx"`
	InFlight    int64 `json:"in_flight"`
	CacheSize   int   `json:"cache_size"`
	Advisors    int   `json:"advisors"`
	Batches     int64 `json:"batches"`
	BatchItems  int64 `json:"batch_items"`
	Asks        int64 `json:"asks"`

	// Lifecycle is present when a corpus lifecycle manager is attached
	// (serve -snapshot-dir / -watch): warm-start origin, reload counters,
	// and last-error per advisor.
	Lifecycle *lifecycle.State `json:"lifecycle,omitempty"`

	QueryP50Micros  int64 `json:"query_p50_micros"`
	QueryP99Micros  int64 `json:"query_p99_micros"`
	ReportP50Micros int64 `json:"report_p50_micros"`
	ReportP99Micros int64 `json:"report_p99_micros"`
	BatchP50Micros  int64 `json:"batch_p50_micros"`
	BatchP99Micros  int64 `json:"batch_p99_micros"`
	AskP50Micros    int64 `json:"ask_p50_micros"`
	AskP99Micros    int64 `json:"ask_p99_micros"`
}

func (s *Stats) snapshot() StatsSnapshot {
	qp := s.queryRing.percentiles(0.50, 0.99)
	rp := s.reportRing.percentiles(0.50, 0.99)
	bp := s.batchRing.percentiles(0.50, 0.99)
	ap := s.askRing.percentiles(0.50, 0.99)
	return StatsSnapshot{
		Requests:        s.requests.Value(),
		CacheHits:       s.hits.Value(),
		CacheMisses:     s.misses.Value(),
		Evictions:       s.evictions.Value(),
		Rejected:        s.rejected.Value(),
		Timeouts:        s.timeouts.Value(),
		Errors5xx:       s.errors5xx.Value(),
		InFlight:        s.inFlight.Value(),
		Batches:         s.batches.Value(),
		BatchItems:      s.batchItems.Value(),
		Asks:            s.asks.Value(),
		QueryP50Micros:  qp[0].Microseconds(),
		QueryP99Micros:  qp[1].Microseconds(),
		ReportP50Micros: rp[0].Microseconds(),
		ReportP99Micros: rp[1].Microseconds(),
		BatchP50Micros:  bp[0].Microseconds(),
		BatchP99Micros:  bp[1].Microseconds(),
		AskP50Micros:    ap[0].Microseconds(),
		AskP99Micros:    ap[1].Microseconds(),
	}
}
