package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/jsonw"
	"repro/internal/lifecycle"
	"repro/internal/nlp"
	"repro/internal/nvvp"
	"repro/internal/obs"
	"repro/internal/vsm"
)

// Options configures a Service. The zero value gets sane production
// defaults.
type Options struct {
	CacheSize    int           // total cached queries (default 1024)
	CacheShards  int           // LRU shards (default 8)
	MaxInFlight  int           // concurrent retrievals (default 64)
	MaxQueue     int           // waiting-room size (default 4*MaxInFlight)
	Timeout      time.Duration // per-request deadline (default 2s)
	MaxBodySize  int64         // report upload cap in bytes (default 1 MiB)
	MaxBatch     int           // queries per batch, or issues per report (default 64)
	BatchWorkers int           // worker pool answering one batch (default 8, capped by MaxInFlight)
	Logger       *slog.Logger  // failed (status >= 400) and slow request log (default: discard)

	// Tracer samples request traces for /tracez. Every request gets a
	// trace ID (X-Trace-Id header, trace_id response field, request log)
	// regardless; the tracer only decides whether the span tree is
	// recorded. nil: never sampled.
	Tracer *obs.Tracer
	// Metrics is the registry the service's counters and latency
	// histograms live in, served on /metricz (default obs.Default()).
	Metrics *obs.Registry

	// Fault is the fault-injection layer (see internal/fault). nil — the
	// production default — compiles every fault point to a single nil
	// check, the same pattern as unsampled obs spans.
	Fault *fault.Injector
	// BreakerThreshold is how many consecutive infrastructure failures
	// open an advisor's circuit breaker (default 5); BreakerCooldown is
	// how long an open breaker waits before admitting a half-open probe
	// (default 2s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
}

func (o Options) withDefaults() Options {
	if o.CacheSize <= 0 {
		o.CacheSize = 1024
	}
	if o.CacheShards <= 0 {
		o.CacheShards = 8
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 64
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 4 * o.MaxInFlight
	}
	if o.Timeout <= 0 {
		o.Timeout = 2 * time.Second
	}
	if o.MaxBodySize <= 0 {
		o.MaxBodySize = 1 << 20
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 64
	}
	if o.BatchWorkers <= 0 {
		o.BatchWorkers = 8
	}
	if o.BatchWorkers > o.MaxInFlight {
		o.BatchWorkers = o.MaxInFlight
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if o.Metrics == nil {
		o.Metrics = obs.Default()
	}
	return o
}

// Service is the advising server: JSON API + cache + admission over a
// Registry. Create with New, mount via ServeHTTP (it implements
// http.Handler), and call BeginDrain before shutting the http.Server down.
type Service struct {
	reg      *Registry
	cache    *Cache
	admit    *Admission
	stats    *Stats
	opts     Options
	mux      *http.ServeMux
	flt      *fault.Injector // nil unless fault injection is enabled
	breakers *breakerSet     // per-advisor circuit breakers
	draining sync.RWMutex    // held exclusively only to flip drain
	drained  bool

	lcMu sync.RWMutex
	lc   *lifecycle.Manager // optional corpus lifecycle, see SetLifecycle
}

// New assembles a Service over reg. The registry's hot-swap log is routed to
// the service logger.
func New(reg *Registry, opts Options) *Service {
	opts = opts.withDefaults()
	stats := newStats(opts.Metrics)
	s := &Service{
		reg:      reg,
		cache:    NewCache(opts.CacheSize, opts.CacheShards, stats),
		admit:    NewAdmission(opts.MaxInFlight, opts.MaxQueue, stats),
		stats:    stats,
		opts:     opts,
		mux:      http.NewServeMux(),
		flt:      opts.Fault,
		breakers: newBreakerSet(opts.BreakerThreshold, opts.BreakerCooldown, opts.Metrics),
	}
	reg.SetLogf(func(format string, args ...any) {
		opts.Logger.Info(fmt.Sprintf(format, args...))
	})
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)
	s.mux.Handle("GET /metricz", obs.MetricsHandler(opts.Metrics))
	s.mux.Handle("GET /tracez", obs.TraceHandler(opts.Tracer.Store()))
	s.mux.HandleFunc("GET /v1/advisors", s.handleAdvisors)
	s.mux.HandleFunc("GET /v1/backends", s.handleBackends)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("GET /v1/ask", s.handleAsk)
	s.mux.HandleFunc("POST /v1/ask", s.handleAsk)
	s.mux.HandleFunc("GET /v1/{advisor}/rules", s.handleRules)
	s.mux.HandleFunc("GET /v1/{advisor}/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/{advisor}/report", s.handleReport)
	s.mux.HandleFunc("POST /v1/admin/reload", s.handleAdminReload)
	return s
}

// SetLifecycle attaches the corpus lifecycle manager: POST /v1/admin/reload
// triggers its rebuilds and /statsz gains a lifecycle section. Safe to call
// after the service is serving (the manager is usually wired once the
// registry is warm).
func (s *Service) SetLifecycle(lm *lifecycle.Manager) {
	s.lcMu.Lock()
	s.lc = lm
	s.lcMu.Unlock()
}

func (s *Service) lifecycleManager() *lifecycle.Manager {
	s.lcMu.RLock()
	defer s.lcMu.RUnlock()
	return s.lc
}

// Registry returns the advisor registry the service serves from.
func (s *Service) Registry() *Registry { return s.reg }

// Stats returns a point-in-time snapshot of the operational counters.
func (s *Service) Stats() StatsSnapshot {
	snap := s.stats.snapshot()
	snap.CacheSize = s.cache.Len()
	snap.Advisors = s.reg.Len()
	if lm := s.lifecycleManager(); lm != nil {
		st := lm.State()
		snap.Lifecycle = &st
	}
	snap.Breakers = s.breakers.snapshot()
	return snap
}

// Reload hot-swaps the named advisor and invalidates its cached answers.
// It returns the rule diff, for callers that want to surface it.
func (s *Service) Reload(name string, next *core.Advisor) core.RulesDiff {
	diff := s.reg.Replace(name, next)
	dropped := s.cache.Invalidate(name)
	if dropped > 0 {
		s.opts.Logger.Info("cache invalidated", "advisor", name, "entries", dropped)
	}
	return diff
}

// BeginDrain marks the service not-ready so load balancers (polling /readyz)
// stop sending traffic; in-flight requests keep running. Pair it with
// http.Server.Shutdown, which drains open connections.
func (s *Service) BeginDrain() {
	s.draining.Lock()
	s.drained = true
	s.draining.Unlock()
	s.opts.Logger.Info("draining: readyz now failing, in-flight requests continuing")
}

func (s *Service) isDraining() bool {
	s.draining.RLock()
	defer s.draining.RUnlock()
	return s.drained
}

// exchange is one request's envelope around the routed handler, pooled so
// a request allocates none: it wraps the ResponseWriter to record the
// status, and carries the trace ID and the arrival time the request's
// deadline runs from. Handlers reach it through the writer they are given.
type exchange struct {
	http.ResponseWriter
	status  int
	traceID string
	start   time.Time
}

var exchangePool = sync.Pool{New: func() any { return new(exchange) }}

func (e *exchange) WriteHeader(code int) {
	e.status = code
	e.ResponseWriter.WriteHeader(code)
}

// ServeHTTP implements http.Handler with per-request tracing, in-flight
// accounting and a log of failed and slow requests around the routed
// handlers. Every request gets a trace ID (returned in X-Trace-Id and
// logged); when the tracer samples the request, the handler pipeline
// records a span tree retrievable from /tracez by that ID, and only then
// does the request carry a derived context.
//
// A request is logged when its status is 400 or more or it took longer
// than a tenth of Options.Timeout; /statsz and /metricz count every
// request.
func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ex := exchangePool.Get().(*exchange)
	*ex = exchange{ResponseWriter: w, status: http.StatusOK, traceID: obs.NewTraceID(), start: time.Now()}
	s.stats.requests.Add(1)
	s.stats.inFlight.Add(1)
	defer s.stats.inFlight.Add(-1)
	w.Header().Set("X-Trace-Id", ex.traceID)
	var root *obs.Span
	if s.opts.Tracer.Sample() {
		root = s.opts.Tracer.Root(ex.traceID, r.Method+" "+r.URL.Path)
		r = r.WithContext(obs.ContextWithSpan(obs.WithTraceID(r.Context(), ex.traceID), root))
	}
	if ferr := s.flt.Err(fault.ServiceHandler); ferr != nil {
		// injected handler fault: the request fails before routing, but
		// still as a well-formed JSON error carrying its trace ID
		writeError(ex, http.StatusInternalServerError, "%v", ferr)
	} else {
		s.mux.ServeHTTP(ex, r)
	}
	dur := time.Since(ex.start)
	if ex.status >= 500 {
		s.stats.errors5xx.Add(1)
	}
	if root != nil {
		root.SetAttrInt("status", ex.status)
		root.Finish()
	}
	if ex.status >= http.StatusBadRequest || dur > s.opts.Timeout/10 {
		s.opts.Logger.Info("access",
			"method", r.Method,
			"path", r.URL.Path,
			"status", ex.status,
			"dur_micros", dur.Microseconds(),
			"cache", w.Header().Get("X-Cache"),
			"trace", ex.traceID,
		)
	}
	*ex = exchange{}
	exchangePool.Put(ex)
}

// CachedQuery answers q against the named advisor through the cache and
// admission control — the path the JSON API, the HTML webui, batches and
// asks share. backend "" or "vsm" scores with the paper's TF-IDF/cosine
// default, "bm25" with the Okapi view over the same postings; an unknown
// backend fails fast with vsm.ErrUnknownBackend, before admission or
// annotation. Each backend keys its own cache entries; the default
// spellings share one key space. hit reports whether retrieval was skipped.
//
// Each call is its own request: a hit returns on the caller's goroutine
// with no deadline or admission slot, and a miss runs under Options.Timeout
// from the moment it misses.
func (s *Service) CachedQuery(ctx context.Context, advisor, backend, q string) (answers []core.Answer, hit bool, err error) {
	var l lease
	defer l.release(s)
	return s.cachedQuery(ctx, &l, advisor, backend, q)
}

// CachedQueryFull is CachedQuery plus a count of failed index partitions,
// which no longer exist: the count is always 0.
//
// Deprecated: use CachedQuery. It stays only because the benchmark module
// still calls it.
func (s *Service) CachedQueryFull(ctx context.Context, advisor, backend, q string) (answers []core.Answer, hit bool, shardsFailed int, err error) {
	answers, hit, err = s.CachedQuery(ctx, advisor, backend, q)
	return answers, hit, 0, err
}

// Bounds on one untrusted query: a /v1 query, an ask, a batch item or one
// report issue. Both sit far above the longest synthesized report issue
// (108 terms), and together they cap what one cache entry can pin.
const (
	maxQueryTerms    = 1024
	maxQueryKeyBytes = 16 << 10
)

// ErrQueryTooLong: the query normalizes to more than maxQueryTerms terms,
// or to a cache key longer than maxQueryKeyBytes. It is the client's
// mistake, so it answers 400 and never reaches the advisor's breaker.
var ErrQueryTooLong = errors.New("service: query too long")

// boundQuery bounds a normalized query against the named advisor.
func boundQuery(advisor, backend string, terms []string) error {
	if len(terms) > maxQueryTerms {
		return fmt.Errorf("%w: %d terms exceed %d", ErrQueryTooLong, len(terms), maxQueryTerms)
	}
	if n := queryKeyLen(advisor, backend, terms); n > maxQueryKeyBytes {
		return fmt.Errorf("%w: %d-byte cache key exceeds %d", ErrQueryTooLong, n, maxQueryKeyBytes)
	}
	return nil
}

// cachedQuery is CachedQuery under the caller's lease (see lease).
//
// The query is normalized and keyed first, and a hit is answered right
// there, on the caller's goroutine. Only a miss takes the lease's deadline
// and admission slot and the detached single-flight compute (see miss).
func (s *Service) cachedQuery(ctx context.Context, l *lease, advisor, backend, q string) (answers []core.Answer, hit bool, err error) {
	// one span lookup covers the whole query path: with tracing off (or
	// this request unsampled) parent is nil and every child span below is
	// a no-op nil pointer — the hot path pays a single ctx.Value call
	parent := obs.SpanFrom(ctx)
	if !vsm.ValidBackend(backend) {
		return nil, false, fmt.Errorf("%w: %q", vsm.ErrUnknownBackend, backend)
	}
	if _, ok := s.reg.Get(advisor); !ok {
		return nil, false, fmt.Errorf("%w: %q", ErrUnknownAdvisor, advisor)
	}
	// annotate the query once: the normalized terms key the cache AND feed
	// retrieval on a miss, so the query text is never tokenized twice —
	// report answering (one lookup per profiler issue) pays the query NLP
	// exactly once per issue
	annSpan := parent.StartChild("annotate")
	terms := nlp.QueryTerms(q)
	annSpan.SetAttrInt("terms", len(terms))
	annSpan.Finish()
	if err := boundQuery(advisor, backend, terms); err != nil {
		return nil, false, err
	}
	key := QueryKeyBackend(advisor, backend, terms)
	// every outcome past this point feeds the advisor's circuit breaker:
	// successes reset it, infrastructure failures (timeouts, injected
	// faults, internal errors) count toward tripping it, and client errors
	// or server-wide overload are not this advisor's fault and record
	// nothing (see breakerFailure)
	brk := s.breakers.get(advisor)
	defer func() {
		switch {
		case err == nil:
			brk.Record(false)
		case breakerFailure(err):
			brk.Record(true)
		}
	}()
	if ferr := s.flt.Err(fault.NLPAnnotate); ferr != nil {
		return nil, false, ferr
	}
	cacheSpan := parent.StartChild("cache")
	if answers, ok := s.cache.Get(key); ok {
		if cacheSpan != nil {
			cacheSpan.SetAttr("hit", "true")
			cacheSpan.Finish()
		}
		return answers, true, nil
	}
	return s.miss(ctx, l, parent, cacheSpan, key, advisor, backend, terms)
}

// miss answers a lookup the cache could not. It takes the lease's deadline
// and admission slot, and only then enters the cache's single-flight
// compute, so a flight is registered by an owner that already holds a
// slot: no waiter waits on an owner still queued. The compute runs in a
// goroutine detached from the deadline, so an expired deadline returns
// promptly while the computation finishes and still fills the cache.
//
// The advisor that answers is read inside the compute func, after the
// flight is registered, never before: a Reload that swaps the advisor while
// the miss is in flight then finds the flight and marks it not cacheable
// (Cache.Invalidate), so a stale answer cannot outlive the swap in the
// cache.
func (s *Service) miss(ctx context.Context, l *lease, parent, cacheSpan *obs.Span, key, advisor, backend string, terms []string) ([]core.Answer, bool, error) {
	ctx, err := l.acquire(ctx, s, parent)
	if err != nil {
		return nil, false, s.failLookup(cacheSpan, err)
	}
	type result struct {
		answers []core.Answer
		hit     bool
		err     error
	}
	ch := make(chan result, 1)
	go func() {
		a, h, e := s.cache.GetOrCompute(key, func() ([]core.Answer, error) {
			adv, ok := s.reg.Get(advisor)
			if !ok {
				return nil, fmt.Errorf("%w: %q", ErrUnknownAdvisor, advisor)
			}
			// the score span hangs off the cache span so a trace shows hit
			// (no child) vs miss (scored)
			scoreSpan := cacheSpan.StartChild("score")
			defer scoreSpan.Finish()
			if backend != "" {
				scoreSpan.SetAttr("backend", backend)
			}
			// the vsm.score fault point is drawn once per miss; an injected
			// fault surfaces inside the compute func, which GetOrCompute
			// never caches
			if ferr := s.flt.Err(fault.VSMScore); ferr != nil {
				scoreSpan.SetAttr("error", ferr.Error())
				return nil, ferr
			}
			out, qerr := adv.Retrieve(obs.ContextWithSpan(context.Background(), scoreSpan), terms, adv.QueryOpts(backend))
			if qerr != nil {
				return nil, qerr
			}
			scoreSpan.SetAttrInt("answers", len(out))
			return out, nil
		})
		ch <- result{a, h, e}
	}()
	select {
	case res := <-ch:
		if cacheSpan != nil {
			cacheSpan.SetAttr("hit", strconv.FormatBool(res.hit))
			cacheSpan.Finish()
		}
		return res.answers, res.hit, res.err
	case <-ctx.Done():
		return nil, false, s.failLookup(cacheSpan, ctx.Err())
	}
}

// failLookup ends a miss that got no answer: the admission queue was full,
// the deadline passed (queued for a slot or waiting for the compute), or
// the caller gave up. Only the deadline counts as a timeout.
func (s *Service) failLookup(cacheSpan *obs.Span, err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		s.stats.timeouts.Add(1)
		cacheSpan.SetAttr("outcome", "timeout")
	}
	cacheSpan.Finish()
	return err
}

// ErrUnknownAdvisor: the path's {advisor} is not in the registry.
var ErrUnknownAdvisor = errors.New("service: unknown advisor")

// --- handlers ---------------------------------------------------------------

func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Service) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.isDraining() || s.reg.Len() == 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "not ready")
		return
	}
	fmt.Fprintln(w, "ready")
}

func (s *Service) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Service) handleAdvisors(w http.ResponseWriter, _ *http.Request) {
	names := s.reg.Names()
	infos := make([]AdvisorInfo, 0, len(names))
	for _, n := range names {
		if a, ok := s.reg.Get(n); ok {
			infos = append(infos, advisorInfo(n, a))
		}
	}
	writeJSON(w, http.StatusOK, infos)
}

func (s *Service) handleRules(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("advisor")
	adv, ok := s.reg.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown advisor %q", name)
		return
	}
	rules := adv.Rules()
	resp := RulesResponse{Advisor: name, Count: len(rules), Rules: make([]Rule, len(rules))}
	for i, rule := range rules {
		resp.Rules[i] = toRule(rule)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleQuery(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("advisor")
	q := strings.TrimSpace(queryParam(r.URL.RawQuery, "q"))
	if q == "" {
		writeError(w, http.StatusBadRequest, "missing query parameter q")
		return
	}
	// absent/empty backend takes the default path and leaves the response
	// byte-identical to a backend-unaware build (Backend marshals omitempty)
	backend := strings.TrimSpace(queryParam(r.URL.RawQuery, "backend"))
	ex := w.(*exchange)
	start := time.Now()
	l := lease{deadline: ex.start.Add(s.opts.Timeout)}
	answers, hit, err := s.cachedQuery(r.Context(), &l, name, backend, q)
	l.release(s)
	s.stats.recordQuery(time.Since(start))
	if err != nil {
		writeQueryError(w, err)
		return
	}
	if hit {
		w.Header()["X-Cache"] = cacheHit
	} else {
		w.Header()["X-Cache"] = cacheMiss
	}
	// the QueryResponse body, written without encoding/json (see api.go)
	b := jsonw.AppendString(append(getBody(), `{"advisor":`...), name)
	b = jsonw.AppendString(append(b, `,"query":`...), q)
	if backend != "" {
		b = jsonw.AppendString(append(b, `,"backend":`...), backend)
	}
	b = appendAnswers(b, answers)
	writeBody(w, b, ex.traceID)
}

// queryParam is url.ParseQuery(raw).Get(name) without building the map:
// the value of the first pair whose key unescapes to name, skipping pairs
// ParseQuery rejects (a semicolon, a bad escape) exactly as it does.
func queryParam(raw, name string) string {
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, err := url.QueryUnescape(k); err != nil || k != name {
			continue
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}

// handleBackends lists the scoring backends every advisor offers, default
// first — clients use it to populate a backend picker.
func (s *Service) handleBackends(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, BackendsResponse{Default: vsm.BackendVSM, Backends: vsm.Backends()})
}

func (s *Service) handleReport(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("advisor")
	if _, ok := s.reg.Get(name); !ok {
		writeError(w, http.StatusNotFound, "unknown advisor %q", name)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, s.opts.MaxBodySize+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	if int64(len(body)) > s.opts.MaxBodySize {
		writeError(w, http.StatusRequestEntityTooLarge, "report exceeds %d bytes", s.opts.MaxBodySize)
		return
	}
	report, err := parseReport(string(body))
	if err != nil {
		writeError(w, http.StatusBadRequest, "could not parse report: %v", err)
		return
	}
	issues := report.Issues()
	if len(issues) > s.opts.MaxBatch {
		writeError(w, http.StatusBadRequest, "report of %d issues exceeds limit %d", len(issues), s.opts.MaxBatch)
		return
	}
	ex := w.(*exchange)
	start := time.Now()
	// the issues share the request's one deadline, running from its
	// arrival, and at most one admission slot, taken by the first miss
	l := lease{deadline: ex.start.Add(s.opts.Timeout)}
	// the ReportResponse body, written without encoding/json (see api.go)
	b := jsonw.AppendString(append(getBody(), `{"advisor":`...), name)
	if report.Program != "" {
		b = jsonw.AppendString(append(b, `,"program":`...), report.Program)
	}
	b = append(b, `,"issues":`...)
	sep := byte('[')
	for _, issue := range issues {
		answers, _, err := s.cachedQuery(r.Context(), &l, name, "", issue.Query())
		if err != nil {
			l.release(s)
			s.stats.recordReport(time.Since(start))
			writeQueryError(w, err)
			return
		}
		b = jsonw.AppendString(append(append(b, sep), `{"title":`...), issue.Title)
		if issue.Section != "" {
			b = jsonw.AppendString(append(b, `,"section":`...), issue.Section)
		}
		b = append(appendAnswers(b, answers), '}')
		sep = ','
	}
	if len(issues) == 0 {
		b = append(b, "null"...)
	} else {
		b = append(b, ']')
	}
	l.release(s)
	s.stats.recordReport(time.Since(start))
	writeBody(w, b, ex.traceID)
}

// handleAdminReload synchronously rebuilds and hot-swaps advisors through
// the lifecycle manager — ?advisor=NAME for one, none for all. Single-flight
// collisions are 409 (a rebuild is already running, the request is
// redundant), unknown advisors 404, build failures 500.
func (s *Service) handleAdminReload(w http.ResponseWriter, r *http.Request) {
	lm := s.lifecycleManager()
	if lm == nil {
		writeError(w, http.StatusNotImplemented, "corpus lifecycle not enabled on this server")
		return
	}
	advisor := strings.TrimSpace(r.URL.Query().Get("advisor"))
	start := time.Now()
	err := lm.ReloadNow(r.Context(), advisor)
	switch {
	case err == nil:
	case errors.Is(err, lifecycle.ErrInProgress):
		writeError(w, http.StatusConflict, "%v", err)
		return
	case errors.Is(err, lifecycle.ErrUnknownSource):
		writeError(w, http.StatusNotFound, "%v", err)
		return
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		writeError(w, http.StatusServiceUnavailable, "reload cancelled: %v", err)
		return
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, ReloadResponse{
		Advisor:       advisor,
		DurationMicro: time.Since(start).Microseconds(),
		State:         lm.State(),
		TraceID:       w.(*exchange).traceID,
	})
}

// parseReport accepts both profiler formats: NVVP-style text and the JSON
// metrics snapshot.
func parseReport(text string) (*nvvp.Report, error) {
	trimmed := strings.TrimSpace(text)
	if strings.HasPrefix(trimmed, "{") {
		m, err := nvvp.ParseMetricsJSON([]byte(trimmed))
		if err != nil {
			return nil, err
		}
		return m.Report(), nil
	}
	return nvvp.Parse(text)
}

// writeQueryError maps CachedQuery errors onto status codes: unknown advisor
// → 404, unknown backend or an over-long query → 400, overload → 429,
// deadline → 503, anything else → 500.
func writeQueryError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrUnknownAdvisor):
		writeError(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, vsm.ErrUnknownBackend), errors.Is(err, ErrQueryTooLong):
		writeError(w, http.StatusBadRequest, "%v", err)
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "server overloaded, retry later")
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		writeError(w, http.StatusServiceUnavailable, "request timed out")
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	// render to a buffer first so marshal errors become clean 500s
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		http.Error(w, `{"error":"encode response"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_, _ = buf.WriteTo(w)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	// ServeHTTP stamps X-Trace-Id on the response before routing, so every
	// error body can echo its trace ID without threading a context here
	writeJSON(w, status, ErrorResponse{
		Error:   fmt.Sprintf(format, args...),
		TraceID: w.Header().Get("X-Trace-Id"),
	})
}
