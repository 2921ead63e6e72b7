// Package lifecycle manages the corpus of a running advising service: warm
// starts from the snapshot store, and a background rebuild loop that keeps
// advisors fresh as their source guides change — without ever building on
// the serving path.
//
// Warm start (WarmStart) fills a registry at boot: for each configured
// source it loads the stored snapshot when the source fingerprint matches,
// and cold-builds (then snapshots) only what is missing, stale, or corrupt.
// A corrupt snapshot is quarantined and counted, never fatal — the server
// always comes up.
//
// The rebuild loop (Run) is a polling watcher with debounce: a source whose
// fingerprint changed is rebuilt only after the new fingerprint has been
// observed in two consecutive polls, so a guide mid-edit does not trigger a
// storm of half-baked rebuilds. Rebuilds run in a bounded worker pool with
// per-advisor single-flight and retry-with-backoff. A rebuild's first
// attempt updates the serving advisor (Source.Build with it as prev); a
// retry builds from nothing. Each successful build is verified (non-empty
// rules, self-query smoke check), snapshotted, and then hot-swapped into the
// live registry through the configured Swap hook (the registry's Replace).
package lifecycle

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/store"
)

// ErrInProgress: a rebuild for that advisor is already running (single
// flight); the caller's request is redundant, not failed.
var ErrInProgress = errors.New("lifecycle: rebuild already in progress")

// ErrUnknownSource: no source is registered under that name.
var ErrUnknownSource = errors.New("lifecycle: unknown source")

// Source is one advisor's provenance: where it comes from, how to detect
// that it changed, and how to build it.
type Source struct {
	// Name keys the advisor in the registry and the snapshot store.
	Name string
	// Path is the source document's path, recorded in manifests ("" for
	// generated sources).
	Path string
	// Fingerprint returns a stable content hash of everything the build
	// depends on (document bytes, keyword config, threshold). Equal
	// fingerprints promise bit-identical builds; the watcher polls it and
	// warm start compares it against the stored manifest.
	Fingerprint func() (string, error)
	// Build constructs the advisor of the source's current content from
	// prev, typically through core.Framework.UpdateFromSentencesCtx, which
	// re-runs Stage I only over the sentences prev does not hold. prev is
	// the serving advisor on a rebuild's first attempt and nil at warm
	// start and on a retry; the result must not depend on it.
	Build func(ctx context.Context, prev *core.Advisor) (*core.Advisor, error)
}

// Options configures a Manager. Registry registration and hot swap are
// plain funcs so the package stays decoupled from the serving layer: wire
// Register to service.Registry.Add and Swap to service.Registry.Replace.
type Options struct {
	// Store persists snapshots; nil disables persistence (every start is a
	// cold build, the watcher still works).
	Store *store.Store
	// Register installs an advisor at warm start (before traffic flows).
	Register func(name string, a *core.Advisor)
	// Swap hot-swaps an advisor under live traffic and returns the rule
	// diff. Defaults to Register with a zero diff.
	Swap func(name string, next *core.Advisor) core.RulesDiff
	// Interval is the watcher poll period (default 15s).
	Interval time.Duration
	// Retries is how many times a failed rebuild is retried (default 3,
	// negative for none).
	Retries int
	// Backoff is the first retry delay, doubled per attempt (default 1s).
	Backoff time.Duration
	// Workers bounds concurrent builds (default 2) so a multi-guide refresh
	// cannot starve the serving goroutines of CPU.
	Workers int
	// Logger receives lifecycle events (default: discard).
	Logger *slog.Logger
	// Metrics is the registry for the lifecycle_* counters and histograms
	// (default obs.Default()).
	Metrics *obs.Registry
	// Fault is the fault-injection layer for the lifecycle.rebuild point;
	// nil (the production default) costs one nil check per rebuild attempt.
	// Store-level faults are wired into the Store itself via SetFaults.
	Fault *fault.Injector
}

func (o Options) withDefaults() Options {
	if o.Interval <= 0 {
		o.Interval = 15 * time.Second
	}
	if o.Retries < 0 {
		o.Retries = 0
	} else if o.Retries == 0 {
		o.Retries = 3
	}
	if o.Backoff <= 0 {
		o.Backoff = time.Second
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if o.Metrics == nil {
		o.Metrics = obs.Default()
	}
	if o.Register == nil {
		o.Register = func(string, *core.Advisor) {}
	}
	if o.Swap == nil {
		register := o.Register
		o.Swap = func(name string, next *core.Advisor) core.RulesDiff {
			register(name, next)
			return core.RulesDiff{}
		}
	}
	return o
}

// sourceState is one source's live bookkeeping.
type sourceState struct {
	src       Source
	inflight  bool
	current   *core.Advisor // the serving advisor — the base of the next rebuild
	liveHash  string        // fingerprint of the serving advisor
	pending   string        // changed fingerprint awaiting debounce confirmation
	origin    string        // "snapshot" or "build"
	builtAt   time.Time
	lastSwap  *time.Time // nil until the first swap; never written through
	reloads   int64
	lastDiff  string
	lastErr   string
	lastReuse float64 // share of the last rebuild's sentences carried over from prev
}

// Manager owns the corpus lifecycle for a set of sources.
type Manager struct {
	opts    Options
	mu      sync.Mutex
	sources map[string]*sourceState
	order   []string
	running atomic.Bool
	slots   chan struct{}       // bounded build pool
	flt     *fault.Injector     // nil unless fault injection is enabled
	sleep   func(time.Duration) // retry sleeper; replaced in tests

	hits       *obs.Counter
	misses     *obs.Counter
	corrupt    *obs.Counter
	failures   *obs.Counter
	storeRetry *obs.Counter   // lifecycle_store_retries_total
	swapHist   *obs.Histogram // one observation per hot swap: its count is the reload count
	buildHist  *obs.Histogram
	loadHist   *obs.Histogram
}

// New creates a Manager; add sources with AddSource, then WarmStart and
// (optionally) Run.
func New(opts Options) *Manager {
	opts = opts.withDefaults()
	m := &Manager{
		opts:       opts,
		sources:    map[string]*sourceState{},
		slots:      make(chan struct{}, opts.Workers),
		flt:        opts.Fault,
		sleep:      time.Sleep,
		hits:       opts.Metrics.Counter("lifecycle_snapshot_hits_total"),
		misses:     opts.Metrics.Counter("lifecycle_snapshot_misses_total"),
		corrupt:    opts.Metrics.Counter("lifecycle_snapshot_corrupt_total"),
		failures:   opts.Metrics.Counter("lifecycle_build_failures_total"),
		storeRetry: opts.Metrics.Counter("lifecycle_store_retries_total"),
		swapHist:   opts.Metrics.Histogram("lifecycle_swap_latency_micros"),
		buildHist:  opts.Metrics.Histogram("lifecycle_build_micros"),
		loadHist:   opts.Metrics.Histogram("lifecycle_snapshot_load_micros"),
	}
	return m
}

// AddSource registers a source. Call before WarmStart/Run.
func (m *Manager) AddSource(src Source) error {
	if src.Name == "" || src.Fingerprint == nil || src.Build == nil {
		return errors.New("lifecycle: source needs Name, Fingerprint, and Build")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.sources[src.Name]; ok {
		return fmt.Errorf("lifecycle: duplicate source %q", src.Name)
	}
	m.sources[src.Name] = &sourceState{src: src}
	m.order = append(m.order, src.Name)
	return nil
}

// Verify is the pre-swap smoke check: an advisor must have extracted at
// least one rule, and asking it one of its own rules back must retrieve
// something. A build that fails Verify never reaches the registry.
func Verify(a *core.Advisor) error {
	rules := a.Rules()
	if len(rules) == 0 {
		return errors.New("lifecycle: verify: advisor has no advising sentences")
	}
	for i, r := range rules {
		if i == 3 {
			break
		}
		if len(a.Query(r.Text)) > 0 {
			return nil
		}
	}
	return errors.New("lifecycle: verify: self-query smoke check found no answers")
}

// WarmStart fills the registry: snapshot when fresh, cold build otherwise,
// across a bounded worker pool. A build error fails startup (the server
// would have nothing to serve); a snapshot error never does — corrupt
// snapshots are quarantined and rebuilt from source.
func (m *Manager) WarmStart(ctx context.Context) error {
	span := obs.SpanFrom(ctx).StartChild("lifecycle.warmstart")
	defer span.Finish()
	m.mu.Lock()
	names := append([]string(nil), m.order...)
	m.mu.Unlock()
	span.SetAttrInt("sources", len(names))

	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	for _, name := range names {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			m.slots <- struct{}{}
			defer func() { <-m.slots }()
			if err := m.startOne(ctx, name); err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
			}
		}(name)
	}
	wg.Wait()
	return firstErr
}

// startOne warm-starts a single source: snapshot if fresh, else cold build.
// Store.Load compares the manifest's fingerprint before it reads the
// payload, so a stale snapshot is never decoded.
func (m *Manager) startOne(ctx context.Context, name string) error {
	m.mu.Lock()
	st := m.sources[name]
	m.mu.Unlock()
	fp, err := st.src.Fingerprint()
	if err != nil {
		return fmt.Errorf("lifecycle: fingerprint %s: %w", name, err)
	}

	if m.opts.Store != nil {
		loadSpan := obs.SpanFrom(ctx).StartChild("lifecycle.load")
		loadSpan.SetAttr("advisor", name)
		start := time.Now()
		adv, man, lerr := m.opts.Store.Load(name, fp)
		m.loadHist.ObserveDuration(time.Since(start))
		switch {
		case lerr == nil:
			loadSpan.SetAttr("outcome", "hit")
			loadSpan.Finish()
			m.hits.Inc()
			m.opts.Register(name, adv)
			m.noteStarted(name, adv, fp, "snapshot", man.BuiltAt)
			m.opts.Logger.Info("warm start from snapshot", "advisor", name, "rules", man.Rules)
			return nil
		case errors.Is(lerr, store.ErrStale):
			loadSpan.SetAttr("outcome", "stale")
			loadSpan.Finish()
			m.misses.Inc()
			m.opts.Logger.Info("snapshot stale, rebuilding", "advisor", name)
		case errors.Is(lerr, store.ErrCorrupt):
			loadSpan.SetAttr("outcome", "corrupt")
			loadSpan.Finish()
			m.corrupt.Inc()
			m.misses.Inc()
			if qerr := m.opts.Store.Quarantine(name); qerr != nil {
				m.opts.Logger.Warn("quarantine failed", "advisor", name, "err", qerr)
			}
			m.opts.Logger.Warn("snapshot corrupt, quarantined, rebuilding", "advisor", name, "err", lerr)
		default:
			loadSpan.SetAttr("outcome", "miss")
			loadSpan.Finish()
			m.misses.Inc()
		}
	}

	adv, err := m.buildVerified(ctx, name, st.src, nil)
	if err != nil {
		return err
	}
	m.snapshot(name, st.src, adv, fp)
	m.opts.Register(name, adv)
	m.noteStarted(name, adv, fp, "build", adv.BuiltAt())
	m.opts.Logger.Info("cold built", "advisor", name, "rules", len(adv.Rules()))
	return nil
}

func (m *Manager) noteStarted(name string, adv *core.Advisor, fp, origin string, builtAt time.Time) {
	m.mu.Lock()
	st := m.sources[name]
	st.current = adv
	st.liveHash = fp
	st.origin = origin
	st.builtAt = builtAt
	st.lastErr = ""
	m.mu.Unlock()
}

// buildVerified runs Build from prev, then Verify, under spans and the
// build histogram.
func (m *Manager) buildVerified(ctx context.Context, name string, src Source, prev *core.Advisor) (*core.Advisor, error) {
	buildSpan := obs.SpanFrom(ctx).StartChild("lifecycle.build")
	buildSpan.SetAttr("advisor", name)
	start := time.Now()
	adv, err := src.Build(ctx, prev)
	m.buildHist.ObserveDuration(time.Since(start))
	buildSpan.Finish()
	if err != nil {
		m.failures.Inc()
		return nil, fmt.Errorf("lifecycle: build %s: %w", name, err)
	}
	verifySpan := obs.SpanFrom(ctx).StartChild("lifecycle.verify")
	err = Verify(adv)
	verifySpan.Finish()
	if err != nil {
		m.failures.Inc()
		return nil, fmt.Errorf("lifecycle: %s: %w", name, err)
	}
	return adv, nil
}

// snapshot persists a freshly built advisor, retrying transient store I/O
// failures with bounded jittered backoff (each retry increments
// lifecycle_store_retries_total). Exhausted retries are logged, not fatal:
// the advisor still serves, the next boot just cold-builds again.
func (m *Manager) snapshot(name string, src Source, adv *core.Advisor, fp string) {
	if m.opts.Store == nil {
		return
	}
	var err error
	for attempt := 0; attempt <= m.opts.Retries; attempt++ {
		if attempt > 0 {
			m.storeRetry.Inc()
			m.sleep(jitteredBackoff(m.opts.Backoff, attempt-1, name))
		}
		if _, err = m.opts.Store.Save(name, adv, src.Path, fp); err == nil {
			if attempt > 0 {
				m.opts.Logger.Info("snapshot save recovered", "advisor", name, "attempts", attempt+1)
			}
			return
		}
		m.opts.Logger.Warn("snapshot save failed", "advisor", name, "attempt", attempt+1, "err", err)
	}
	m.opts.Logger.Warn("snapshot save abandoned", "advisor", name, "err", err)
}

// jitteredBackoff is the attempt'th retry delay: base<<attempt scaled by a
// deterministic ±25% jitter derived from the advisor name and attempt, so
// concurrent retries for different advisors de-synchronize without
// wall-clock randomness (chaos runs stay reproducible).
func jitteredBackoff(base time.Duration, attempt int, name string) time.Duration {
	d := base << attempt
	h := fnv.New32a()
	_, _ = h.Write([]byte(name))
	_, _ = h.Write([]byte{byte(attempt)})
	frac := float64(h.Sum32()%1000)/1000.0*0.5 - 0.25 // [-0.25, +0.25)
	return d + time.Duration(float64(d)*frac)
}

// Run polls source fingerprints until ctx is cancelled, triggering
// debounced rebuilds. Call in its own goroutine.
func (m *Manager) Run(ctx context.Context) {
	m.running.Store(true)
	defer m.running.Store(false)
	t := time.NewTicker(m.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			m.tick(ctx)
		}
	}
}

// tick is one watcher poll: fingerprint every source, arm the debounce on a
// first-seen change, and fire the rebuild when the change holds for a
// second consecutive poll.
func (m *Manager) tick(ctx context.Context) {
	m.mu.Lock()
	names := append([]string(nil), m.order...)
	m.mu.Unlock()
	for _, name := range names {
		m.mu.Lock()
		st := m.sources[name]
		src := st.src
		live, pending, inflight := st.liveHash, st.pending, st.inflight
		m.mu.Unlock()
		if inflight {
			continue
		}
		fp, err := src.Fingerprint()
		if err != nil {
			m.setLastErr(name, fmt.Sprintf("fingerprint: %v", err))
			continue
		}
		switch {
		case fp == live:
			if pending != "" {
				m.setPending(name, "") // change reverted before debounce expired
			}
		case fp == pending:
			// stable across two polls — rebuild off the serving path
			m.setPending(name, "")
			go func(name string) {
				if err := m.rebuild(ctx, name); err != nil && !errors.Is(err, ErrInProgress) {
					m.opts.Logger.Warn("background rebuild failed", "advisor", name, "err", err)
				}
			}(name)
		default:
			m.setPending(name, fp)
		}
	}
}

func (m *Manager) setPending(name, fp string) {
	m.mu.Lock()
	m.sources[name].pending = fp
	m.mu.Unlock()
}

func (m *Manager) setLastErr(name, msg string) {
	m.mu.Lock()
	m.sources[name].lastErr = msg
	m.mu.Unlock()
}

// ReloadNow synchronously rebuilds and hot-swaps the named advisor,
// bypassing the debounce — the POST /v1/admin/reload path. An empty name
// reloads every source in order; the first error aborts the sweep.
func (m *Manager) ReloadNow(ctx context.Context, name string) error {
	if name != "" {
		return m.rebuild(ctx, name)
	}
	m.mu.Lock()
	names := append([]string(nil), m.order...)
	m.mu.Unlock()
	for _, n := range names {
		if err := m.rebuild(ctx, n); err != nil {
			return err
		}
	}
	return nil
}

// rebuild builds, verifies, snapshots, and hot-swaps one advisor, with
// per-advisor single-flight, a bounded worker slot, and retry-with-backoff.
func (m *Manager) rebuild(ctx context.Context, name string) error {
	m.mu.Lock()
	st, ok := m.sources[name]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownSource, name)
	}
	if st.inflight {
		m.mu.Unlock()
		return ErrInProgress
	}
	st.inflight = true
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		st.inflight = false
		m.mu.Unlock()
	}()

	select {
	case m.slots <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-m.slots }()

	span := obs.SpanFrom(ctx).StartChild("lifecycle.rebuild")
	span.SetAttr("advisor", name)
	defer span.Finish()

	var lastErr error
	for attempt := 0; attempt <= m.opts.Retries; attempt++ {
		if attempt > 0 {
			backoff := m.opts.Backoff << (attempt - 1)
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		if ferr := m.flt.Err(fault.LifecycleRebuild); ferr != nil {
			// injected rebuild fault: the attempt fails before any work,
			// exercising exactly this retry loop
			lastErr = fmt.Errorf("lifecycle: rebuild %s: %w", name, ferr)
			m.opts.Logger.Warn("rebuild attempt failed", "advisor", name, "attempt", attempt+1, "err", ferr)
			continue
		}
		fp, err := st.src.Fingerprint()
		if err != nil {
			lastErr = fmt.Errorf("lifecycle: fingerprint %s: %w", name, err)
			continue
		}
		// the first attempt updates the serving advisor; a retry builds
		// from nothing, so a base that cannot be updated still gets a
		// cold build
		var prev *core.Advisor
		if attempt == 0 {
			m.mu.Lock()
			prev = st.current
			m.mu.Unlock()
		}
		adv, err := m.buildVerified(ctx, name, st.src, prev)
		if err != nil {
			lastErr = err
			m.opts.Logger.Warn("rebuild attempt failed", "advisor", name, "attempt", attempt+1, "err", err)
			continue
		}
		m.snapshot(name, st.src, adv, fp)

		swapSpan := obs.SpanFrom(ctx).StartChild("lifecycle.swap")
		start := time.Now()
		diff := m.opts.Swap(name, adv)
		m.swapHist.ObserveDuration(time.Since(start))
		swapSpan.SetAttr("diff", diff.Short())
		swapSpan.Finish()
		stats := adv.BuildStats()
		reuse := 0.0
		if stats.Sentences > 0 {
			reuse = float64(stats.Reused) / float64(stats.Sentences)
		}

		m.mu.Lock()
		st.current = adv
		st.liveHash = fp
		st.origin = "build"
		st.builtAt = adv.BuiltAt()
		st.lastSwap = &start
		st.reloads++
		st.lastDiff = diff.Short()
		st.lastErr = ""
		st.lastReuse = reuse
		m.mu.Unlock()
		m.opts.Logger.Info("hot-swapped", "advisor", name, "diff", diff.Short(), "reused", stats.Reused)
		return nil
	}
	m.setLastErr(name, lastErr.Error())
	return lastErr
}

// AdvisorState is one advisor's lifecycle view, as served on /statsz.
type AdvisorState struct {
	Advisor    string     `json:"advisor"`
	Origin     string     `json:"origin"` // "snapshot" or "build"
	SourcePath string     `json:"source_path,omitempty"`
	BuiltAt    time.Time  `json:"built_at"`
	LastSwap   *time.Time `json:"last_swap,omitempty"` // absent until the first swap
	Reloads    int64      `json:"reloads"`
	LastDiff   string     `json:"last_diff,omitempty"`
	LastError  string     `json:"last_error,omitempty"`
	Rebuilding bool       `json:"rebuilding,omitempty"`
	// LastReuseRatio is the fraction of the document's sentences the last
	// rebuild carried over from the advisor it replaced (0 before the first
	// rebuild, and after one that built from nothing).
	LastReuseRatio float64 `json:"last_reuse_ratio,omitempty"`
}

// State is the lifecycle snapshot served on /statsz.
type State struct {
	Watching       bool           `json:"watching"`
	Reloads        int64          `json:"reloads"`
	SnapshotHits   int64          `json:"snapshot_hits"`
	SnapshotMisses int64          `json:"snapshot_misses"`
	SnapshotBad    int64          `json:"snapshot_corrupt"`
	BuildFailures  int64          `json:"build_failures"`
	Advisors       []AdvisorState `json:"advisors"`
}

// State returns a point-in-time lifecycle snapshot.
func (m *Manager) State() State {
	out := State{
		Watching:       m.running.Load(),
		Reloads:        m.swapHist.Count(),
		SnapshotHits:   m.hits.Value(),
		SnapshotMisses: m.misses.Value(),
		SnapshotBad:    m.corrupt.Value(),
		BuildFailures:  m.failures.Value(),
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, name := range m.order {
		st := m.sources[name]
		out.Advisors = append(out.Advisors, AdvisorState{
			Advisor:        name,
			Origin:         st.origin,
			SourcePath:     st.src.Path,
			BuiltAt:        st.builtAt,
			LastSwap:       st.lastSwap,
			Reloads:        st.reloads,
			LastDiff:       st.lastDiff,
			LastError:      st.lastErr,
			Rebuilding:     st.inflight,
			LastReuseRatio: st.lastReuse,
		})
	}
	sort.Slice(out.Advisors, func(i, j int) bool { return out.Advisors[i].Advisor < out.Advisors[j].Advisor })
	return out
}
