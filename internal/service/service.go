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
}

func (o Options) withDefaults() Options {
	if o.CacheSize <= 0 {
		o.CacheSize = 1024
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
		reg:   reg,
		cache: NewCache(opts.CacheSize, 8, stats),
		admit: NewAdmission(opts.MaxInFlight, opts.MaxQueue, stats),
		stats: stats,
		opts:  opts,
		mux:   http.NewServeMux(),
		flt:   opts.Fault,
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

// Lifecycle returns the attached corpus lifecycle manager, or nil.
func (s *Service) Lifecycle() *lifecycle.Manager {
	s.lcMu.RLock()
	defer s.lcMu.RUnlock()
	return s.lc
}

// Registry returns the advisor registry the service serves from.
func (s *Service) Registry() *Registry { return s.reg }

// MaxBodySize returns the cap on a request body in bytes
// (Options.MaxBodySize).
func (s *Service) MaxBodySize() int64 { return s.opts.MaxBodySize }

// Handle mounts h on pattern (a net/http ServeMux pattern) inside the
// request envelope of ServeHTTP, beside the /v1 routes: h's requests get a
// trace ID, a root span when sampled, the request count, the access log and
// the service.handler fault point, and their bodies are capped at
// Options.MaxBodySize (a read past it fails with *http.MaxBytesError). Call
// it before serving traffic.
func (s *Service) Handle(pattern string, h http.Handler) {
	s.mux.Handle(pattern, http.MaxBytesHandler(h, s.opts.MaxBodySize))
}

// Stats returns a point-in-time snapshot of the operational counters.
func (s *Service) Stats() StatsSnapshot {
	snap := s.stats.snapshot()
	snap.CacheSize = s.cache.Len()
	snap.Advisors = s.reg.Len()
	if lm := s.Lifecycle(); lm != nil {
		st := lm.State()
		snap.Lifecycle = &st
	}
	return snap
}

// Reload hot-swaps the named advisor and returns the rule diff, for callers
// that want to surface it. No cached answer of the replaced advisor can be
// served afterwards: every cache key carries the identity of the index that
// answers it (see appendQueryKey).
func (s *Service) Reload(name string, next *core.Advisor) core.RulesDiff {
	return s.reg.Replace(name, next)
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
		r = r.WithContext(obs.ContextWithSpan(r.Context(), root))
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
// asks share. A lookup is keyed by what the advisor's index scores for q
// (see appendQueryKey): queries that differ only in words the guide never
// uses share an entry. hit reports whether retrieval was skipped.
//
// Each call is its own request: a hit returns on the caller's goroutine
// with no deadline or admission slot, and a miss runs under Options.Timeout
// from the moment it misses.
func (s *Service) CachedQuery(ctx context.Context, advisor, q string) (answers []core.Answer, hit bool, err error) {
	var l lease
	defer l.release(s)
	return s.cachedQuery(ctx, &l, advisor, q)
}

// CachedQueryFull is CachedQuery for a backend the request named, plus a
// count of failed index partitions, which no longer exist: the count is
// always 0. A backend other than "" or "vsm" is vsm.ErrUnknownBackend.
//
// Deprecated: use CachedQuery. It stays only because the benchmark module
// still calls it.
func (s *Service) CachedQueryFull(ctx context.Context, advisor, backend, q string) (answers []core.Answer, hit bool, shardsFailed int, err error) {
	if err := checkBackend(backend); err != nil {
		return nil, false, 0, err
	}
	answers, hit, err = s.CachedQuery(ctx, advisor, q)
	return answers, hit, 0, err
}

// checkBackend refuses a request that names a scoring backend other than
// the one model (see vsm.ValidBackend). It runs where a request is
// decoded; nothing below that point sees a backend.
func checkBackend(backend string) error {
	if !vsm.ValidBackend(backend) {
		return fmt.Errorf("%w: %q", vsm.ErrUnknownBackend, backend)
	}
	return nil
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
// mistake, so it answers 400.
var ErrQueryTooLong = errors.New("service: query too long")

// boundQuery bounds a normalized query against the named advisor.
func boundQuery(advisor string, terms []string) error {
	if len(terms) > maxQueryTerms {
		return fmt.Errorf("%w: %d terms exceed %d", ErrQueryTooLong, len(terms), maxQueryTerms)
	}
	if n := queryKeyLen(advisor, terms); n > maxQueryKeyBytes {
		return fmt.Errorf("%w: %d-byte cache key exceeds %d", ErrQueryTooLong, n, maxQueryKeyBytes)
	}
	return nil
}

// cachedQuery is CachedQuery under the caller's lease (see lease).
//
// The query is normalized and keyed first, and a hit is answered right
// there, on the caller's goroutine. Only a miss takes the lease's deadline
// and admission slot and the detached single-flight compute (see miss).
//
// The advisor is read from the registry once, before keying: the key holds
// term ids of that advisor's index, which mean nothing to another index,
// so a miss scores on that same advisor.
func (s *Service) cachedQuery(ctx context.Context, l *lease, advisor, q string) (answers []core.Answer, hit bool, err error) {
	// one span lookup covers the whole query path: with tracing off (or
	// this request unsampled) parent is nil and every child span below is
	// a no-op nil pointer — the hot path pays a single ctx.Value call
	parent := obs.SpanFrom(ctx)
	adv, ok := s.reg.Get(advisor)
	if !ok {
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
	if err := boundQuery(advisor, terms); err != nil {
		return nil, false, err
	}
	var buf [256]byte
	key := string(appendQueryKey(buf[:0], adv, advisor, terms))
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
	return s.miss(ctx, l, parent, cacheSpan, key, adv, terms)
}

// miss answers a lookup the cache could not. It takes the lease's deadline
// and admission slot, and only then enters the cache's single-flight
// compute, so a flight is registered by an owner that already holds a
// slot: no waiter waits on an owner still queued. The compute runs in a
// goroutine detached from the deadline, so an expired deadline returns
// promptly while the computation finishes and still fills the cache.
//
// adv is the advisor whose index made key, and it alone answers: no lookup
// resolved against a successor index can produce that key, so an entry a
// miss stores after a Reload swapped adv out is never read by a lookup
// against the successor, and ages out of the LRU. A Reload while the miss
// is in flight is the same case.
func (s *Service) miss(ctx context.Context, l *lease, parent, cacheSpan *obs.Span, key string, adv *core.Advisor, terms []string) ([]core.Answer, bool, error) {
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
			// the score span hangs off the cache span so a trace shows hit
			// (no child) vs miss (scored)
			scoreSpan := cacheSpan.StartChild("score")
			defer scoreSpan.Finish()
			// the vsm.score fault point is drawn once per miss; an injected
			// fault surfaces inside the compute func, which GetOrCompute
			// never caches
			if ferr := s.flt.Err(fault.VSMScore); ferr != nil {
				scoreSpan.SetAttr("error", ferr.Error())
				return nil, ferr
			}
			out := adv.Retrieve(obs.ContextWithSpan(context.Background(), scoreSpan), terms, adv.Threshold())
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

// refusal is a request the service turns down before any lookup, with the
// status it answers and the message its error body carries.
type refusal struct {
	status int
	msg    string
}

func (e *refusal) Error() string { return e.msg }

func refuse(status int, format string, args ...any) error {
	return &refusal{status: status, msg: fmt.Sprintf(format, args...)}
}

// StatusOf is the HTTP status an error of CachedQuery, Report or Ask's
// validation answers: a refused report its own status, an unknown advisor
// 404, an over-long query 400, overload 429, a deadline 503, and anything
// else 500.
func StatusOf(err error) int {
	var r *refusal
	switch {
	case errors.As(err, &r):
		return r.status
	case errors.Is(err, ErrUnknownAdvisor):
		return http.StatusNotFound
	case errors.Is(err, ErrQueryTooLong):
		return http.StatusBadRequest
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

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
	// a named backend must be the one model; it is echoed, and an absent or
	// empty one leaves the body without the field
	backend := strings.TrimSpace(queryParam(r.URL.RawQuery, "backend"))
	if err := checkBackend(backend); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ex := w.(*exchange)
	start := time.Now()
	l := lease{deadline: ex.start.Add(s.opts.Timeout)}
	answers, hit, err := s.cachedQuery(r.Context(), &l, name, q)
	l.release(s)
	s.stats.queryHist.ObserveDuration(time.Since(start))
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

func (s *Service) handleReport(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("advisor")
	// an unknown advisor is refused before its body is read
	if _, ok := s.reg.Get(name); !ok {
		writeQueryError(w, unknownAdvisor(name))
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, s.opts.MaxBodySize+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	ex := w.(*exchange)
	report, issues, answers, err := s.report(r.Context(), ex.start.Add(s.opts.Timeout), name, string(body))
	if err != nil {
		writeQueryError(w, err)
		return
	}
	// the ReportResponse body, written without encoding/json (see api.go)
	b := jsonw.AppendString(append(getBody(), `{"advisor":`...), name)
	if report.Program != "" {
		b = jsonw.AppendString(append(b, `,"program":`...), report.Program)
	}
	b = append(b, `,"issues":`...)
	sep := byte('[')
	for i, issue := range issues {
		b = jsonw.AppendString(append(append(b, sep), `{"title":`...), issue.Title)
		if issue.Section != "" {
			b = jsonw.AppendString(append(b, `,"section":`...), issue.Section)
		}
		b = append(appendAnswers(b, answers[i]), '}')
		sep = ','
	}
	if len(issues) == 0 {
		b = append(b, "null"...)
	} else {
		b = append(b, ']')
	}
	writeBody(w, b, ex.traceID)
}

func unknownAdvisor(name string) error {
	return refuse(http.StatusNotFound, "unknown advisor %q", name)
}

// Report answers an NVVP report, text or JSON metrics, against the named
// advisor: answers[i] answers the report's issue i. It refuses an unknown
// advisor, a text of more than Options.MaxBodySize bytes, a report that
// does not parse and one of more than Options.MaxBatch issues before any
// lookup (StatusOf gives each refusal's status). The issues share one
// deadline, Options.Timeout or ctx's own, and at most one admission slot.
func (s *Service) Report(ctx context.Context, advisor, text string) (*nvvp.Report, [][]core.Answer, error) {
	report, _, answers, err := s.report(ctx, time.Now().Add(remainingBudget(ctx, s.opts.Timeout)), advisor, text)
	return report, answers, err
}

// report is Report with the request's deadline explicit; it also returns
// the report's issues, in the order of answers.
func (s *Service) report(ctx context.Context, deadline time.Time, advisor, text string) (*nvvp.Report, []nvvp.Issue, [][]core.Answer, error) {
	if _, ok := s.reg.Get(advisor); !ok {
		return nil, nil, nil, unknownAdvisor(advisor)
	}
	if int64(len(text)) > s.opts.MaxBodySize {
		return nil, nil, nil, refuse(http.StatusRequestEntityTooLarge, "report exceeds %d bytes", s.opts.MaxBodySize)
	}
	report, err := nvvp.ParseReport(text)
	if err != nil {
		return nil, nil, nil, refuse(http.StatusBadRequest, "could not parse report: %v", err)
	}
	issues := report.Issues()
	if len(issues) > s.opts.MaxBatch {
		return nil, nil, nil, refuse(http.StatusBadRequest, "report of %d issues exceeds limit %d", len(issues), s.opts.MaxBatch)
	}
	start := time.Now()
	defer func() { s.stats.reportHist.ObserveDuration(time.Since(start)) }()
	// at most one admission slot, taken by the first miss
	l := lease{deadline: deadline}
	defer l.release(s)
	answers := make([][]core.Answer, len(issues))
	for i, issue := range issues {
		a, _, err := s.cachedQuery(ctx, &l, advisor, issue.Query())
		if err != nil {
			return nil, nil, nil, err
		}
		answers[i] = a
	}
	return report, issues, answers, nil
}

// handleAdminReload synchronously rebuilds and hot-swaps advisors through
// the lifecycle manager — ?advisor=NAME for one, none for all. Single-flight
// collisions are 409 (a rebuild is already running, the request is
// redundant), unknown advisors 404, build failures 500.
func (s *Service) handleAdminReload(w http.ResponseWriter, r *http.Request) {
	lm := s.Lifecycle()
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

// writeQueryError writes err as the error body of its StatusOf status;
// overload and deadline errors get a fixed message.
func writeQueryError(w http.ResponseWriter, err error) {
	status, msg := StatusOf(err), err.Error()
	switch status {
	case http.StatusTooManyRequests:
		w.Header().Set("Retry-After", "1")
		msg = "server overloaded, retry later"
	case http.StatusServiceUnavailable:
		msg = "request timed out"
	}
	writeError(w, status, "%s", msg)
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
