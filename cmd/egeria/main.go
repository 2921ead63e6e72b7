// Command egeria is the framework CLI: it synthesizes an advising tool from
// an HPC document and lets you list its rules, ask optimization questions,
// answer profiler reports, or serve the tool over HTTP.
//
// Usage:
//
//	egeria -doc guide.html rules
//	egeria -corpus cuda query "how to avoid shared memory bank conflicts"
//	egeria -corpus cuda report norm            # synthesize + answer a report
//	egeria -doc guide.html report report.txt   # answer a report file
//	egeria -corpus cuda serve -addr :8080
//	egeria -corpus cuda -corpora opencl,xeon serve   # multi-advisor registry
//	egeria diff advisor.snap guide.html              # what changed since the snapshot?
//
// The -corpus flag selects a built-in synthetic guide (cuda, opencl, xeon)
// instead of an HTML document; -xeon-tuned applies the paper's §4.3 keyword
// tuning; -threshold overrides the 0.15 recommendation threshold.
//
// diff compares a saved advisor snapshot against the current version of a
// source (a document file, or a built-in corpus name with -seed) by stable
// sentence identity: it prints the kept/added/removed partition, the change
// ratio, and whether a serve reload at -incremental-threshold would take
// the differential rebuild path or run the full pipeline.
//
// serve hosts the production layer of internal/service: the HTML UI at /
// (with a federated /ask page), a JSON API under /v1/ (advisors, rules,
// query with a selectable scoring backend, report, batch, and the
// cross-advisor ask), health endpoints (/healthz, /readyz, /statsz), a
// sharded LRU query cache (-cache-size), and admission control
// (-max-inflight, -max-batch, -timeout). SIGINT/SIGTERM drains gracefully. Observability: every response carries an X-Trace-Id;
// -trace-sample records span trees for a fraction of requests on /tracez,
// /metricz exposes the process metrics registry, and Go profiling lives
// under /debug/pprof/.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/doc"
	"repro/internal/fault"
	"repro/internal/htmldoc"
	"repro/internal/lifecycle"
	"repro/internal/nvvp"
	"repro/internal/obs"
	"repro/internal/selectors"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/webui"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("egeria: ")

	var (
		docPath   = flag.String("doc", "", "document to build the advisor from (.html, .md, .txt by extension)")
		corpusReg = flag.String("corpus", "", "built-in synthetic guide: cuda, opencl, xeon")
		seed      = flag.Int64("seed", 1, "corpus generation seed")
		threshold = flag.Float64("threshold", 0.15, "similarity threshold for recommendations")
		xeonTuned = flag.Bool("xeon-tuned", false, "use the Xeon-tuned keyword sets (§4.3)")
		cfgPath   = flag.String("config", "", "JSON keyword configuration merged over the defaults")
		addr      = flag.String("addr", ":8080", "listen address for serve")

		// serving-layer flags (serve subcommand)
		corpora     = flag.String("corpora", "", "comma-separated extra built-in guides to serve alongside the primary advisor (e.g. opencl,xeon)")
		cacheSize   = flag.Int("cache-size", 1024, "query cache capacity (entries)")
		maxInflight = flag.Int("max-inflight", 64, "max concurrent retrievals before queuing/429")
		maxBatch    = flag.Int("max-batch", 64, "queries per batch, or issues per report")
		timeout     = flag.Duration("timeout", 2*time.Second, "per-request deadline")
		traceSample = flag.Float64("trace-sample", 0, "fraction of requests whose span trees are recorded for /tracez (0 = off, 1 = every request)")

		// resilience flags (serve subcommand). -fault is a development/chaos
		// knob, off by default; production pays one nil check per fault point.
		faultSpec = flag.String("fault", "", "fault-injection spec for chaos testing, e.g. 'all:err=0.1' or 'store.write:err=0.2;partial=0.3,vsm.score:lat=5ms@0.5' (dev only; empty = off)")
		faultSeed = flag.Int64("fault-seed", 1, "PRNG seed for -fault draws (fixed seed = reproducible fault sequence)")
		brkThresh = flag.Int("breaker-threshold", service.DefaultBreakerThreshold, "consecutive failures that open an advisor's circuit breaker")
		brkCool   = flag.Duration("breaker-cooldown", service.DefaultBreakerCooldown, "how long an open breaker waits before probing the advisor again")

		// corpus lifecycle flags (serve subcommand; -incremental-threshold
		// also sets the mode the diff subcommand predicts)
		snapshotDir     = flag.String("snapshot-dir", "", "directory of advisor snapshots: serve warm-starts from it and persists rebuilds to it (empty: cold build, no persistence)")
		watch           = flag.Bool("watch", false, "poll source documents and hot-reload advisors when they change")
		rebuildInterval = flag.Duration("rebuild-interval", 15*time.Second, "poll period for -watch")
		incrThreshold   = flag.Float64("incremental-threshold", lifecycle.DefaultIncrementalThreshold,
			"change-ratio ceiling for differential rebuilds: edits touching at most this fraction of a document reuse the previous advisor's per-sentence work (negative disables incremental rebuilds)")
	)
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	cfg := selectors.DefaultConfig()
	if *xeonTuned {
		cfg = selectors.XeonTunedConfig()
	}
	if *cfgPath != "" {
		f, err := os.Open(*cfgPath)
		if err != nil {
			log.Fatal(err)
		}
		extra, err := selectors.ReadConfigJSON(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		cfg = cfg.Merge(extra)
	}
	// newFramework builds the advisor generator from the framework-level
	// flags
	newFramework := func() *core.Framework {
		return core.New(core.WithConfig(cfg), core.WithThreshold(*threshold))
	}
	fw := newFramework()
	// rules/query/report/repl/save build the advisor in-process; serve warm
	// starts from the snapshot store (cold-building only what is missing),
	// and load reads a snapshot file instead of building anything
	buildNow := func() (*core.Advisor, string) {
		advisor, title, err := buildAdvisor(fw, *docPath, *corpusReg, *seed)
		if err != nil {
			log.Fatal(err)
		}
		return advisor, title
	}

	switch args[0] {
	case "rules":
		advisor, _ := buildNow()
		cmdRules(advisor)
	case "query":
		if len(args) < 2 {
			log.Fatal("query requires the question text")
		}
		advisor, _ := buildNow()
		cmdQuery(advisor, strings.Join(args[1:], " "))
	case "report":
		if len(args) < 2 {
			log.Fatal("report requires a program name or report file")
		}
		advisor, _ := buildNow()
		cmdReport(advisor, args[1])
	case "serve":
		// accept flags after the subcommand too ("serve -addr :8080", the
		// form the usage examples show): flag.Parse stops at the first
		// non-flag argument, so re-parse the remainder
		if len(args) > 1 {
			if err := flag.CommandLine.Parse(args[1:]); err != nil {
				log.Fatal(err)
			}
			// the re-parse may have changed a framework-level flag
			// (-threshold), so rebuild the framework from it
			fw = newFramework()
		}
		if *docPath == "" && *corpusReg == "" {
			log.Fatal("serve needs one of -doc or -corpus")
		}
		if err := cmdServe(fw, serveConfig{
			addr:            *addr,
			primaryName:     primaryAdvisorName(*corpusReg, *docPath),
			docPath:         *docPath,
			corpusReg:       *corpusReg,
			extra:           splitList(*corpora),
			seed:            *seed,
			cfgHash:         configFingerprint(cfg, *threshold),
			snapshotDir:     *snapshotDir,
			watch:           *watch,
			rebuildInterval: *rebuildInterval,
			incrThreshold:   *incrThreshold,
			cacheSize:       *cacheSize,
			maxInflight:     *maxInflight,
			maxBatch:        *maxBatch,
			timeout:         *timeout,
			traceSample:     *traceSample,
			faultSpec:       *faultSpec,
			faultSeed:       *faultSeed,
			brkThreshold:    *brkThresh,
			brkCooldown:     *brkCool,
		}); err != nil {
			log.Fatal(err)
		}
	case "repl":
		advisor, title := buildNow()
		cmdREPL(advisor, title)
	case "save":
		if len(args) < 2 {
			log.Fatal("save requires an output path")
		}
		advisor, _ := buildNow()
		f, err := os.Create(args[1])
		if err != nil {
			log.Fatal(err)
		}
		if err := advisor.Save(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("advisor saved to %s (use it with: egeria load %s query ...)", args[1], args[1])
	case "load":
		// load <snapshot> <rules|query|report|repl> [...] — serve a saved
		// advisor without -doc/-corpus or a Stage-I rebuild
		if len(args) < 3 {
			log.Fatal("load requires a snapshot path and a subcommand (rules, query, report, repl)")
		}
		if err := cmdLoad(args[1], args[2], args[3:]); err != nil {
			log.Fatal(err)
		}
	case "export":
		if len(args) < 2 {
			log.Fatal("export requires an output path")
		}
		if *corpusReg == "" {
			log.Fatal("export only applies to -corpus guides")
		}
		if err := exportCorpus(*corpusReg, *seed, args[1]); err != nil {
			log.Fatal(err)
		}
		log.Printf("synthetic guide exported to %s", args[1])
	case "diff":
		// diff <snapshot> <source> — compare a saved advisor against the
		// current version of its source by sentence identity, and predict
		// whether a reload would rebuild incrementally or in full
		if len(args) < 3 {
			log.Fatal("diff requires a snapshot path and a source (document path or built-in corpus name)")
		}
		if err := cmdDiff(args[1], args[2], *seed, *incrThreshold); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatalf("unknown subcommand %q (want rules, query, report, repl, serve, save, load, export, diff)", args[0])
	}
}

// diffSampleCap bounds how many added/removed sentences cmdDiff prints.
const diffSampleCap = 10

// loadDiffSource resolves the diff subcommand's source argument: a document
// file when it has a known extension, otherwise a built-in corpus name
// generated with -seed.
func loadDiffSource(source string, seed int64) (*htmldoc.Document, []htmldoc.Sentence, error) {
	switch filepath.Ext(source) {
	case ".html", ".htm", ".md", ".markdown", ".txt":
		d, err := parseDocFile(source)
		if err != nil {
			return nil, nil, err
		}
		return d, d.Sentences(), nil
	}
	reg, err := corpusRegister(source)
	if err != nil {
		return nil, nil, fmt.Errorf("diff source %q is neither a document path (.html, .md, .txt) nor a built-in corpus name", source)
	}
	g := corpus.Generate(reg, seed)
	return g.Doc, g.Sentences, nil
}

// cmdDiff prints the identity diff between a saved advisor and the current
// version of a source: the kept/added/removed partition, the change ratio,
// and the rebuild mode a serve reload would pick at the given threshold.
func cmdDiff(snapPath, source string, seed int64, threshold float64) error {
	advisor, err := loadAdvisorFile(snapPath)
	if err != nil {
		return err
	}
	d, sents, err := loadDiffSource(source, seed)
	if err != nil {
		return err
	}
	sents = htmldoc.StampIDs(d, sents)
	diffs := doc.Diff(advisor.SentenceIDs(), htmldoc.IDsOf(sents))

	fmt.Printf("%s (%d sentences) vs %s (%d sentences)\n", snapPath, diffs.OldLen, source, diffs.NewLen)
	fmt.Printf("  kept    %d\n  added   %d\n  removed %d\n", len(diffs.Kept), len(diffs.Added), len(diffs.Removed))
	fmt.Printf("  change ratio %.3f, reuse ratio %.3f\n", diffs.ChangeRatio(), diffs.ReuseRatio())
	mode := "full"
	if threshold >= 0 && diffs.ChangeRatio() <= threshold {
		mode = "incremental"
	}
	fmt.Printf("  a reload at -incremental-threshold %.2f would rebuild: %s\n", threshold, mode)

	for i, j := range diffs.Added {
		if i == diffSampleCap {
			fmt.Printf("  ... and %d more added\n", len(diffs.Added)-diffSampleCap)
			break
		}
		fmt.Printf("  + %s\n", sents[j].Text)
	}
	for i, k := range diffs.Removed {
		if i == diffSampleCap {
			fmt.Printf("  ... and %d more removed\n", len(diffs.Removed)-diffSampleCap)
			break
		}
		fmt.Printf("  - %s\n", advisor.SentenceText(k))
	}
	return nil
}

// cmdLoad answers a subcommand from a snapshot file written by save,
// skipping Stage I entirely.
func cmdLoad(path, sub string, rest []string) error {
	advisor, err := loadAdvisorFile(path)
	if err != nil {
		return err
	}
	switch sub {
	case "rules":
		cmdRules(advisor)
	case "query":
		if len(rest) == 0 {
			return fmt.Errorf("load %s query requires the question text", path)
		}
		cmdQuery(advisor, strings.Join(rest, " "))
	case "report":
		if len(rest) == 0 {
			return fmt.Errorf("load %s report requires a program name or report file", path)
		}
		cmdReport(advisor, rest[0])
	case "repl":
		cmdREPL(advisor, advisor.Title())
	default:
		return fmt.Errorf("load: unknown subcommand %q (want rules, query, report, repl)", sub)
	}
	return nil
}

// loadAdvisorFile reads one advisor snapshot as written by save (a raw
// versioned gob stream, the same payload the snapshot store manages).
func loadAdvisorFile(path string) (*core.Advisor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	advisor, err := core.LoadAdvisor(f)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", path, err)
	}
	base := filepath.Base(path)
	advisor.SetName(strings.TrimSuffix(base, filepath.Ext(base)))
	return advisor, nil
}

// configFingerprint hashes everything an advisor build depends on besides
// the document: the keyword configuration and the recommendation
// threshold. selectors.Config is plain string slices, so the JSON encoding
// is deterministic.
func configFingerprint(cfg selectors.Config, threshold float64) string {
	blob, _ := json.Marshal(struct {
		Config    selectors.Config
		Threshold float64
	}{cfg, threshold})
	return store.HashBytes(blob)
}

// parseDocFile loads and parses an on-disk document, choosing the parser by
// file extension (.md/.markdown, .txt, else HTML).
func parseDocFile(path string) (*htmldoc.Document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	switch {
	case strings.HasSuffix(path, ".md") || strings.HasSuffix(path, ".markdown"):
		return htmldoc.ParseMarkdown(string(data)), nil
	case strings.HasSuffix(path, ".txt"):
		return htmldoc.ParsePlainText(string(data)), nil
	default:
		return htmldoc.Parse(string(data)), nil
	}
}

func buildAdvisor(fw *core.Framework, docPath, corpusReg string, seed int64) (*core.Advisor, string, error) {
	switch {
	case docPath != "":
		doc, err := parseDocFile(docPath)
		if err != nil {
			return nil, "", err
		}
		return fw.BuildFromDocument(doc), docPath, nil
	case corpusReg != "":
		reg, err := corpusRegister(corpusReg)
		if err != nil {
			return nil, "", err
		}
		g := corpus.Generate(reg, seed)
		return fw.BuildFromSentences(g.Doc, g.Sentences), g.Doc.Title, nil
	}
	return nil, "", fmt.Errorf("one of -doc or -corpus is required")
}

// corpusRegister maps a -corpus flag value onto a built-in guide register.
func corpusRegister(name string) (corpus.Register, error) {
	switch strings.ToLower(name) {
	case "cuda":
		return corpus.CUDA, nil
	case "opencl":
		return corpus.OpenCL, nil
	case "xeon", "xeonphi":
		return corpus.XeonPhi, nil
	}
	return 0, fmt.Errorf("unknown corpus %q", name)
}

// primaryAdvisorName derives the registry name for the primary advisor: the
// corpus register when one was selected, else the document's base filename.
func primaryAdvisorName(corpusReg, docPath string) string {
	if corpusReg != "" {
		name := strings.ToLower(corpusReg)
		if name == "xeonphi" {
			name = "xeon"
		}
		return name
	}
	base := filepath.Base(docPath)
	return strings.TrimSuffix(base, filepath.Ext(base))
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// serveConfig carries the serve subcommand's knobs.
type serveConfig struct {
	addr            string
	primaryName     string
	docPath         string   // primary advisor from a document...
	corpusReg       string   // ...or from a built-in guide
	extra           []string // additional built-in guides to host
	seed            int64
	cfgHash         string // configFingerprint of keyword config + threshold
	snapshotDir     string // "" disables the snapshot store
	watch           bool
	rebuildInterval time.Duration
	incrThreshold   float64 // change-ratio ceiling for differential rebuilds (0: default, negative: disabled)
	cacheSize       int
	maxInflight     int
	maxBatch        int
	timeout         time.Duration
	traceSample     float64       // fraction of requests with recorded span trees
	metrics         *obs.Registry // nil: the process-wide default registry

	// fault injection (dev/chaos only): faultSpec is the -fault grammar
	// parsed at startup with faultSeed; faults overrides it with a
	// pre-built injector — the hook chaos tests use to flip rules mid-run.
	faultSpec    string
	faultSeed    int64
	faults       *fault.Injector
	brkThreshold int           // circuit-breaker trip threshold (0: default)
	brkCooldown  time.Duration // circuit-breaker probe cooldown (0: default)

	// sources overrides the flag-derived lifecycle sources — the hook tests
	// use to serve small fixture advisors.
	sources []lifecycle.Source
	// retries/backoff override the lifecycle retry policy (0: defaults) —
	// chaos tests shrink the backoff so fault storms resolve in
	// milliseconds instead of seconds.
	retries int
	backoff time.Duration
}

// corpusSource describes one built-in guide as a lifecycle source. Its
// fingerprint is a function of everything the build depends on (register,
// seed, keyword config, threshold), so a snapshot is stale exactly when one
// of those changed.
func corpusSource(fw *core.Framework, name string, reg corpus.Register, seed int64, cfgHash string) lifecycle.Source {
	fp := store.HashBytes([]byte(fmt.Sprintf("corpus:%s:seed=%d:cfg=%s", name, seed, cfgHash)))
	return lifecycle.Source{
		Name:        name,
		Fingerprint: func() (string, error) { return fp, nil },
		Build: func(ctx context.Context) (*core.Advisor, error) {
			g := corpus.Generate(reg, seed)
			return fw.BuildFromSentencesCtx(ctx, g.Doc, g.Sentences), nil
		},
		Sentences: func(ctx context.Context) (*htmldoc.Document, []htmldoc.Sentence, error) {
			g := corpus.Generate(reg, seed)
			return g.Doc, g.Sentences, nil
		},
		Update: fw.UpdateFromSentencesCtx,
	}
}

// docSource describes an on-disk document as a lifecycle source: the
// fingerprint re-hashes the file contents on every poll, which is what makes
// -watch notice edits.
func docSource(fw *core.Framework, name, path, cfgHash string) lifecycle.Source {
	return lifecycle.Source{
		Name: name,
		Path: path,
		Fingerprint: func() (string, error) {
			h, err := store.HashFile(path)
			if err != nil {
				return "", err
			}
			return store.HashBytes([]byte("doc:" + h + ":cfg=" + cfgHash)), nil
		},
		Build: func(ctx context.Context) (*core.Advisor, error) {
			doc, err := parseDocFile(path)
			if err != nil {
				return nil, err
			}
			return fw.BuildFromSentencesCtx(ctx, doc, doc.Sentences()), nil
		},
		Sentences: func(ctx context.Context) (*htmldoc.Document, []htmldoc.Sentence, error) {
			doc, err := parseDocFile(path)
			if err != nil {
				return nil, nil, err
			}
			return doc, doc.Sentences(), nil
		},
		Update: fw.UpdateFromSentencesCtx,
	}
}

// serveSources derives the lifecycle sources from the serve flags: the
// primary advisor (document or built-in guide) plus every -corpora extra.
func serveSources(fw *core.Framework, cfg serveConfig) ([]lifecycle.Source, error) {
	var sources []lifecycle.Source
	if cfg.docPath != "" {
		sources = append(sources, docSource(fw, cfg.primaryName, cfg.docPath, cfg.cfgHash))
	} else {
		reg, err := corpusRegister(cfg.corpusReg)
		if err != nil {
			return nil, err
		}
		sources = append(sources, corpusSource(fw, cfg.primaryName, reg, cfg.seed, cfg.cfgHash))
	}
	for _, name := range cfg.extra {
		name := strings.ToLower(name)
		if name == "xeonphi" {
			name = "xeon"
		}
		if name == cfg.primaryName {
			continue
		}
		reg, err := corpusRegister(name)
		if err != nil {
			return nil, err
		}
		sources = append(sources, corpusSource(fw, name, reg, cfg.seed, cfg.cfgHash))
	}
	return sources, nil
}

// buildServeHandler assembles the full serving stack — snapshot store,
// lifecycle manager (warm start + hot reload), registry, JSON API service,
// HTML UI sharing the service's cache, tracing middleware, and the debug
// endpoints (/metricz, /tracez, /debug/pprof) — without binding a listener,
// so tests can mount it on httptest.Server. It returns the root handler, the
// service (for BeginDrain and stats), and the lifecycle manager (run its
// watcher with mgr.Run when cfg.watch is set).
func buildServeHandler(fw *core.Framework, cfg serveConfig, logger *slog.Logger) (http.Handler, *service.Service, *lifecycle.Manager, error) {
	sources := cfg.sources
	if sources == nil {
		var err error
		if sources, err = serveSources(fw, cfg); err != nil {
			return nil, nil, nil, err
		}
	}
	// fault injection wires through every layer from one injector, so a
	// single -fault spec covers store I/O, lifecycle rebuilds, and the
	// serving path; nil (the default) compiles to one nil check per point
	injector := cfg.faults
	if injector == nil && cfg.faultSpec != "" {
		var err error
		if injector, err = fault.Parse(cfg.faultSpec, cfg.faultSeed); err != nil {
			return nil, nil, nil, err
		}
	}
	if injector.Active() {
		logger.Warn("fault injection ENABLED — not for production", "spec", injector.String(), "seed", cfg.faultSeed)
	}

	var snapStore *store.Store
	if cfg.snapshotDir != "" {
		var err error
		if snapStore, err = store.Open(cfg.snapshotDir); err != nil {
			return nil, nil, nil, err
		}
		snapStore.SetFaults(injector)
	}

	registry := service.NewRegistry()
	mgr := lifecycle.New(lifecycle.Options{
		Store:                snapStore,
		Register:             registry.Add,
		Interval:             cfg.rebuildInterval,
		Retries:              cfg.retries,
		Backoff:              cfg.backoff,
		Logger:               logger,
		Metrics:              cfg.metrics,
		Fault:                injector,
		IncrementalThreshold: cfg.incrThreshold,
	})
	for _, src := range sources {
		if err := mgr.AddSource(src); err != nil {
			return nil, nil, nil, err
		}
	}
	// warm start: snapshots with matching source fingerprints load directly;
	// everything missing, stale, or corrupt is cold-built and re-snapshotted
	if err := mgr.WarmStart(context.Background()); err != nil {
		return nil, nil, nil, err
	}
	advisor, ok := registry.Get(cfg.primaryName)
	if !ok {
		return nil, nil, nil, fmt.Errorf("primary advisor %q missing after warm start", cfg.primaryName)
	}
	title := advisor.Title()
	if title == "" {
		title = cfg.primaryName
	}

	tracer := obs.NewTracer(cfg.traceSample, obs.NewTraceStore(obs.DefaultTraceCapacity))
	svc := service.New(registry, service.Options{
		CacheSize:        cfg.cacheSize,
		MaxInFlight:      cfg.maxInflight,
		MaxBatch:         cfg.maxBatch,
		Timeout:          cfg.timeout,
		Logger:           logger,
		Tracer:           tracer,
		Metrics:          cfg.metrics,
		Fault:            injector,
		BreakerThreshold: cfg.brkThreshold,
		BreakerCooldown:  cfg.brkCooldown,
	})
	// rebuilds now swap through the service (Replace + cache invalidation),
	// and the admin/stats surface gains the lifecycle view
	mgr.SetSwap(svc.Reload)
	svc.SetLifecycle(mgr)

	// the HTML UI shares the service's cache and admission control; the
	// request context carries the UI request's span so shared-path queries
	// appear in its trace tree
	ui := webui.New(advisor, title)
	// pages always render the registry's current advisor, so a hot swap
	// reaches the HTML UI without restarting it
	ui.SetAdvisorProvider(func() *core.Advisor {
		a, _ := registry.Get(cfg.primaryName)
		return a
	})
	ui.SetReloadInfo(func() *webui.ReloadInfo {
		for _, a := range mgr.State().Advisors {
			if a.Advisor == cfg.primaryName {
				return &webui.ReloadInfo{
					Origin:   a.Origin,
					BuiltAt:  a.BuiltAt,
					LastSwap: a.LastSwap,
					Reloads:  a.Reloads,
					LastDiff: a.LastDiff,
				}
			}
		}
		return nil
	})
	ui.SetQuerier(func(ctx context.Context, backend, q string) []core.Answer {
		answers, _, err := svc.CachedQuery(ctx, cfg.primaryName, backend, q)
		if err != nil {
			logger.Warn("webui query failed", "err", err)
			return nil
		}
		return answers
	})
	// the /ask page fans out to every advisor in the registry through the
	// service's federation path, sharing its cache and admission control
	ui.SetFederator(func(ctx context.Context, backend, q string, k int) []webui.FederatedHit {
		answers, errs := svc.Ask(ctx, backend, q, k)
		for name, msg := range errs {
			logger.Warn("webui federated ask failed for advisor", "advisor", name, "err", msg)
		}
		hits := make([]webui.FederatedHit, len(answers))
		for i, a := range answers {
			hits[i] = webui.FederatedHit{
				Advisor: a.Advisor,
				Section: a.Rule.Section,
				Text:    a.Rule.Text,
				Score:   a.Score,
				Norm:    a.Norm,
			}
		}
		return hits
	})

	root := http.NewServeMux()
	root.Handle("/v1/", svc)
	root.Handle("/healthz", svc)
	root.Handle("/readyz", svc)
	root.Handle("/statsz", svc)
	root.Handle("/metricz", svc)
	root.Handle("/tracez", svc)
	// profiling endpoints on the serving mux (mounted explicitly rather than
	// relying on the net/http/pprof DefaultServeMux registration)
	root.HandleFunc("/debug/pprof/", pprof.Index)
	root.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	root.HandleFunc("/debug/pprof/profile", pprof.Profile)
	root.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	root.HandleFunc("/debug/pprof/trace", pprof.Trace)
	root.Handle("/", obs.Middleware(tracer, ui))
	return root, svc, mgr, nil
}

// Connection bounds for `egeria serve`. A client gets readHeaderTimeout to
// send its request line and headers and may hold an idle keep-alive
// connection for idleTimeout. maxHeaderBytes bounds the request line and
// headers, a GET query included: 64 KiB holds a query of 1,024 English
// words several times over, and net/http refuses a megabyte URL with 431
// before any handler runs.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	maxHeaderBytes    = 64 << 10
)

// cmdServe runs the production serving layer: a registry warm-started from
// the snapshot store (cold-building only what is missing or stale), the /v1
// JSON API with query cache and admission control, the HTML webui on the
// same mux sharing both, and — with -watch — a background rebuild loop that
// hot-swaps advisors when their sources change. SIGINT/SIGTERM triggers a
// graceful drain.
func cmdServe(fw *core.Framework, cfg serveConfig) error {
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	root, svc, mgr, err := buildServeHandler(fw, cfg, logger)
	if err != nil {
		return err
	}
	watchCtx, stopWatch := context.WithCancel(context.Background())
	defer stopWatch()
	if cfg.watch {
		go mgr.Run(watchCtx)
		logger.Info("watching sources", "interval", cfg.rebuildInterval.String())
	}

	srv := &http.Server{
		Addr:              cfg.addr,
		Handler:           root,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
	done := make(chan error, 1)
	go func() {
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		<-sigc
		logger.Info("signal received, draining")
		stopWatch() // no rebuilds during shutdown
		svc.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx) // drains in-flight requests
	}()
	log.Printf("serving on %s (advisors: %s; JSON API under /v1/; debug: /metricz /tracez /debug/pprof)",
		cfg.addr, strings.Join(svc.Registry().Names(), ", "))
	if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return <-done
}

func cmdRules(a *core.Advisor) {
	rules := a.Rules()
	st := a.BuildStats()
	fmt.Printf("%d advising sentences out of %d (ratio %.1f); annotate %v, classify %v, index %v\n",
		len(rules), a.SentenceCount(), a.CompressionRatio(),
		st.Annotate.Round(time.Millisecond), st.Classify.Round(time.Millisecond), st.Indexing.Round(time.Millisecond))
	for _, sel := range []selectors.SelectorID{selectors.Keyword, selectors.Comparative, selectors.Imperative, selectors.Subject, selectors.Purpose} {
		if n := st.BySelector[sel]; n > 0 {
			fmt.Printf("  %-28s %d\n", sel, n)
		}
	}
	fmt.Println()
	lastSection := ""
	for _, r := range rules {
		if r.Section != lastSection {
			fmt.Printf("%s\n", r.Section)
			lastSection = r.Section
		}
		fmt.Printf("  - %s  [%s]\n", r.Text, r.Selector)
	}
}

func cmdQuery(a *core.Advisor, q string) {
	answers := a.Query(q)
	if len(answers) == 0 {
		fmt.Println("No relevant sentences found.")
		return
	}
	for _, ans := range answers {
		fmt.Printf("%.2f  [%s]  %s\n", ans.Score, ans.Sentence.Section, ans.Sentence.Text)
	}
}

func cmdReport(a *core.Advisor, arg string) {
	var text string
	if data, err := os.ReadFile(arg); err == nil {
		text = string(data)
	} else {
		synth, serr := nvvp.Synthesize(arg)
		if serr != nil {
			log.Fatalf("%q is neither a readable file (%v) nor a known program (%v)", arg, err, serr)
		}
		text = synth
	}
	report, err := parseAnyReport(text)
	if err != nil {
		log.Fatal(err)
	}
	for _, ra := range a.AnswerReport(report) {
		fmt.Printf("== Issue: %s (section %s)\n", ra.Issue.Title, ra.Issue.Section)
		if len(ra.Answers) == 0 {
			fmt.Println("   No relevant sentences found.")
			continue
		}
		for _, ans := range ra.Answers {
			fmt.Printf("   %.2f  [%s]  %s\n", ans.Score, ans.Sentence.Section, ans.Sentence.Text)
		}
	}
}

// cmdREPL runs an interactive question loop against the advisor — the
// terminal analogue of the web tool's query box.
func cmdREPL(a *core.Advisor, title string) {
	fmt.Printf("%s — %d rules from %d sentences. Ask optimization questions; blank line quits.\n",
		title, len(a.Rules()), a.SentenceCount())
	scanner := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("egeria> ")
		if !scanner.Scan() {
			break
		}
		q := strings.TrimSpace(scanner.Text())
		if q == "" {
			break
		}
		answers := a.Query(q)
		if len(answers) == 0 {
			fmt.Println("No relevant sentences found.")
			continue
		}
		for i, ans := range answers {
			if i >= 10 {
				fmt.Printf("... and %d more\n", len(answers)-i)
				break
			}
			fmt.Printf("  %.2f  [%s]\n        %s\n", ans.Score, ans.Sentence.Section, ans.Sentence.Text)
		}
	}
}

// exportCorpus renders a synthetic guide as an HTML file, so the HTML
// ingestion path can be exercised against a document with known properties.
func exportCorpus(register string, seed int64, path string) error {
	reg, err := corpusRegister(register)
	if err != nil {
		return err
	}
	g := corpus.Generate(reg, seed)
	return os.WriteFile(path, []byte(g.RenderHTML()), 0o644)
}

// parseAnyReport accepts both supported profiler formats: the NVVP-style
// text report and the JSON metrics snapshot.
func parseAnyReport(text string) (*nvvp.Report, error) {
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
