package service

import (
	"repro/internal/lifecycle"
	"repro/internal/obs"
)

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

	batchItems *obs.Counter // queries answered inside batches

	// the latency of every request since process start that passed its
	// request checks, one observation each, so each count is the number
	// of those requests
	queryHist  *obs.Histogram // /v1/{advisor}/query
	reportHist *obs.Histogram // /v1/{advisor}/report and the UI report
	batchHist  *obs.Histogram // /v1/batch
	askHist    *obs.Histogram // /v1/ask and the UI ask
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
		batchItems: reg.Counter("service_batch_items_total"),
		queryHist:  reg.Histogram("service_query_latency_micros"),
		reportHist: reg.Histogram("service_report_latency_micros"),
		batchHist:  reg.Histogram("service_batch_latency_micros"),
		askHist:    reg.Histogram("service_ask_latency_micros"),
	}
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

	// Lifecycle is the attached corpus lifecycle manager's state: warm-start
	// origin, reload counters, and last-error per advisor. Every egeria
	// serve attaches a manager, with or without -snapshot-dir and -watch;
	// the field is absent only for a Service that never had SetLifecycle.
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

// snapshot reads every figure from the registry's metrics: the batch and
// ask counts and the p50/p99 latencies (truncated to µs) are those of the
// histograms /metricz serves.
func (s *Stats) snapshot() StatsSnapshot {
	micros := func(h *obs.Histogram, p float64) int64 { return int64(h.Quantile(p)) }
	return StatsSnapshot{
		Requests:        s.requests.Value(),
		CacheHits:       s.hits.Value(),
		CacheMisses:     s.misses.Value(),
		Evictions:       s.evictions.Value(),
		Rejected:        s.rejected.Value(),
		Timeouts:        s.timeouts.Value(),
		Errors5xx:       s.errors5xx.Value(),
		InFlight:        s.inFlight.Value(),
		Batches:         s.batchHist.Count(),
		BatchItems:      s.batchItems.Value(),
		Asks:            s.askHist.Count(),
		QueryP50Micros:  micros(s.queryHist, 0.50),
		QueryP99Micros:  micros(s.queryHist, 0.99),
		ReportP50Micros: micros(s.reportHist, 0.50),
		ReportP99Micros: micros(s.reportHist, 0.99),
		BatchP50Micros:  micros(s.batchHist, 0.50),
		BatchP99Micros:  micros(s.batchHist, 0.99),
		AskP50Micros:    micros(s.askHist, 0.50),
		AskP99Micros:    micros(s.askHist, 0.99),
	}
}
