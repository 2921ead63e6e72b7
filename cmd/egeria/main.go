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
// sentence identity: it prints the kept/added/removed partition and the
// change and reuse ratios. A serve reload of that edit re-runs Stage I over
// the added sentences only.
//
// serve hosts the production layer of internal/service: the HTML UI at /
// (with a federated /ask page), a JSON API under /v1/ (advisors, rules,
// query, report, batch, and the cross-advisor ask), health endpoints
// (/healthz, /readyz, /statsz), a sharded LRU query cache (-cache-size),
// and admission control (-max-inflight, -max-batch, -timeout).
// SIGINT/SIGTERM drains gracefully. Observability: every response carries
// an X-Trace-Id; -trace-sample records span trees for a fraction of
// requests on /tracez, /metricz exposes the process metrics registry, and
// Go profiling lives under /debug/pprof/.
package main

import (
	"bufio"
	"context"
	"debug/elf"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
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

		// -fault is a development/chaos knob (serve subcommand), off by
		// default; production pays one nil check per fault point.
		faultSpec = flag.String("fault", "", "fault-injection spec for chaos testing, e.g. 'all:err=0.1' or 'store.write:err=0.2;partial=0.3,vsm.score:lat=5ms@0.5'; draws come from a PRNG seeded with 1 (dev only; empty = off)")

		// corpus lifecycle flags (serve subcommand)
		snapshotDir = flag.String("snapshot-dir", "", "directory of advisor snapshots: serve warm-starts from it and persists rebuilds to it (empty: cold build, no persistence)")
		watch       = flag.Bool("watch", false, "poll source documents every 15s and hot-reload advisors when they change")
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
			addr:        *addr,
			primaryName: primaryAdvisorName(*corpusReg, *docPath),
			docPath:     *docPath,
			corpusReg:   *corpusReg,
			extra:       splitList(*corpora),
			seed:        *seed,
			snapshotDir: *snapshotDir,
			watch:       *watch,
			cacheSize:   *cacheSize,
			maxInflight: *maxInflight,
			maxBatch:    *maxBatch,
			timeout:     *timeout,
			traceSample: *traceSample,
			faultSpec:   *faultSpec,
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
		// current version of its source by sentence identity
		if len(args) < 3 {
			log.Fatal("diff requires a snapshot path and a source (document path or built-in corpus name)")
		}
		if err := cmdDiff(os.Stdout, args[1], args[2], *seed); err != nil {
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
	reg, err := corpus.ParseRegister(source)
	if err != nil {
		return nil, nil, fmt.Errorf("diff source %q is neither a document path (.html, .md, .txt) nor a built-in corpus name", source)
	}
	g := corpus.Generate(reg, seed)
	return g.Doc, g.Sentences, nil
}

// cmdDiff writes the identity diff between a saved advisor and the current
// version of a source to w: the kept/added/removed partition, the change
// and reuse ratios, and a sample of the added and removed sentences.
func cmdDiff(w io.Writer, snapPath, source string, seed int64) error {
	advisor, err := loadAdvisorFile(snapPath)
	if err != nil {
		return err
	}
	d, sents, err := loadDiffSource(source, seed)
	if err != nil {
		return err
	}
	diffs := advisor.Diff(d, sents)

	fmt.Fprintf(w, "%s (%d sentences) vs %s (%d sentences)\n", snapPath, diffs.OldLen, source, diffs.NewLen)
	fmt.Fprintf(w, "  kept    %d\n  added   %d\n  removed %d\n", len(diffs.Kept), len(diffs.Added), len(diffs.Removed))
	fmt.Fprintf(w, "  change ratio %.3f, reuse ratio %.3f\n", diffs.ChangeRatio(), diffs.ReuseRatio())
	for i, j := range diffs.Added {
		if i == diffSampleCap {
			fmt.Fprintf(w, "  ... and %d more added\n", len(diffs.Added)-diffSampleCap)
			break
		}
		fmt.Fprintf(w, "  + %s\n", sents[j].Text)
	}
	for i, k := range diffs.Removed {
		if i == diffSampleCap {
			fmt.Fprintf(w, "  ... and %d more removed\n", len(diffs.Removed)-diffSampleCap)
			break
		}
		fmt.Fprintf(w, "  - %s\n", advisor.SentenceText(k))
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
// the document: the keyword configuration, the recommendation threshold and
// the Go build ID of the binary that builds it, so a snapshot written by
// other code is stale. selectors.Config is plain string slices, so the JSON
// encoding is deterministic.
func configFingerprint(cfg selectors.Config, threshold float64, buildID string) string {
	blob, _ := json.Marshal(struct {
		Config    selectors.Config
		Threshold float64
		BuildID   string
	}{cfg, threshold, buildID})
	return store.HashBytes(blob)
}

// executableBuildID returns the Go build ID of the running executable; tests
// replace it.
var executableBuildID = readBuildID

// readBuildID reads the Go build ID from the running executable's ELF
// .note.go.buildid section: a note whose name is "Go" and whose description
// is the ID. It fails on a binary without one (another OS, or a stripped
// binary).
func readBuildID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := elf.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sec := f.Section(".note.go.buildid")
	if sec == nil {
		return "", fmt.Errorf("%s has no .note.go.buildid section", exe)
	}
	note, err := sec.Data()
	if err != nil {
		return "", err
	}
	if len(note) < 16 || f.ByteOrder.Uint32(note) != 4 || string(note[12:16]) != "Go\x00\x00" {
		return "", fmt.Errorf("%s: malformed .note.go.buildid", exe)
	}
	n := int64(f.ByteOrder.Uint32(note[4:]))
	if n == 0 || n > int64(len(note)-16) {
		return "", fmt.Errorf("%s: malformed .note.go.buildid", exe)
	}
	return string(note[16 : 16+n]), nil
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
		reg, err := corpus.ParseRegister(corpusReg)
		if err != nil {
			return nil, "", err
		}
		g := corpus.Generate(reg, seed)
		return fw.BuildFromSentences(g.Doc, g.Sentences), g.Doc.Title, nil
	}
	return nil, "", fmt.Errorf("one of -doc or -corpus is required")
}

// primaryAdvisorName derives the registry name for the primary advisor: the
// corpus register when one was selected, else the document's base filename.
func primaryAdvisorName(corpusReg, docPath string) string {
	if corpusReg != "" {
		if reg, err := corpus.ParseRegister(corpusReg); err == nil {
			return strings.ToLower(reg.String())
		}
		return strings.ToLower(corpusReg)
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
	addr        string
	primaryName string
	docPath     string   // primary advisor from a document...
	corpusReg   string   // ...or from a built-in guide
	extra       []string // additional built-in guides to host
	seed        int64
	snapshotDir string // "" disables the snapshot store
	watch       bool   // poll the sources at the lifecycle's default interval
	cacheSize   int
	maxInflight int
	maxBatch    int
	timeout     time.Duration
	traceSample float64       // fraction of requests with recorded span trees
	metrics     *obs.Registry // nil: the process-wide default registry

	// fault injection (dev/chaos only): faultSpec is the -fault grammar
	// parsed at startup; faults overrides it with a pre-built injector —
	// the hook chaos tests use to flip rules mid-run.
	faultSpec string
	faults    *fault.Injector

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
		Build: func(ctx context.Context, prev *core.Advisor) (*core.Advisor, error) {
			g := corpus.Generate(reg, seed)
			return fw.UpdateFromSentencesCtx(ctx, prev, g.Doc, g.Sentences)
		},
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
		Build: func(ctx context.Context, prev *core.Advisor) (*core.Advisor, error) {
			doc, err := parseDocFile(path)
			if err != nil {
				return nil, err
			}
			return fw.UpdateFromSentencesCtx(ctx, prev, doc, doc.Sentences())
		},
	}
}

// serveSources derives the lifecycle sources from the serve flags: the
// primary advisor (document or built-in guide) plus every -corpora extra.
func serveSources(fw *core.Framework, cfg serveConfig, cfgHash string) ([]lifecycle.Source, error) {
	var sources []lifecycle.Source
	if cfg.docPath != "" {
		sources = append(sources, docSource(fw, cfg.primaryName, cfg.docPath, cfgHash))
	} else {
		reg, err := corpus.ParseRegister(cfg.corpusReg)
		if err != nil {
			return nil, err
		}
		sources = append(sources, corpusSource(fw, cfg.primaryName, reg, cfg.seed, cfgHash))
	}
	for _, extra := range cfg.extra {
		reg, err := corpus.ParseRegister(extra)
		if err != nil {
			return nil, err
		}
		name := strings.ToLower(reg.String())
		if name == cfg.primaryName {
			continue
		}
		sources = append(sources, corpusSource(fw, name, reg, cfg.seed, cfgHash))
	}
	return sources, nil
}

// buildServeHandler assembles the full serving stack — snapshot store,
// lifecycle manager (warm start + hot reload), registry, JSON API service
// with the HTML UI served inside it, and the debug endpoints (/metricz,
// /tracez, /debug/pprof) — without binding a listener,
// so tests can mount it on httptest.Server. It returns the root handler, the
// service (for BeginDrain and stats), and the lifecycle manager (run its
// watcher with mgr.Run when cfg.watch is set).
func buildServeHandler(fw *core.Framework, cfg serveConfig, logger *slog.Logger) (http.Handler, *service.Service, *lifecycle.Manager, error) {
	// snapshots are keyed to the binary that wrote them; one that cannot
	// name its build keeps none
	var buildID string
	if cfg.snapshotDir != "" {
		var err error
		if buildID, err = executableBuildID(); err != nil {
			logger.Warn("warm start off: no Go build ID to key snapshots to", "snapshot_dir", cfg.snapshotDir, "err", err)
			cfg.snapshotDir = ""
		}
	}
	sources := cfg.sources
	if sources == nil {
		var err error
		if sources, err = serveSources(fw, cfg, configFingerprint(fw.Config(), fw.Threshold(), buildID)); err != nil {
			return nil, nil, nil, err
		}
	}
	// fault injection wires through every layer from one injector, so a
	// single -fault spec covers store I/O, lifecycle rebuilds, and the
	// serving path; nil (the default) compiles to one nil check per point
	injector := cfg.faults
	if injector == nil && cfg.faultSpec != "" {
		var err error
		if injector, err = fault.Parse(cfg.faultSpec); err != nil {
			return nil, nil, nil, err
		}
	}
	if injector.Active() {
		logger.Warn("fault injection ENABLED — not for production", "spec", injector.String())
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
		Store:    snapStore,
		Register: registry.Add,
		Swap:     registry.Replace,
		Retries:  cfg.retries,
		Backoff:  cfg.backoff,
		Logger:   logger,
		Metrics:  cfg.metrics,
		Fault:    injector,
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

	svc := service.New(registry, service.Options{
		CacheSize:   cfg.cacheSize,
		MaxInFlight: cfg.maxInflight,
		MaxBatch:    cfg.maxBatch,
		Timeout:     cfg.timeout,
		Logger:      logger,
		Tracer:      obs.NewTracer(cfg.traceSample, obs.NewTraceStore(obs.DefaultTraceCapacity)),
		Metrics:     cfg.metrics,
		Fault:       injector,
	})
	// the admin/stats surface gains the lifecycle view
	svc.SetLifecycle(mgr)
	// the HTML UI is served inside the service's envelope and answers
	// through its cache, admission control and report bounds
	webui.New(svc, cfg.primaryName, title)

	root := http.NewServeMux()
	root.Handle("/", svc)
	// profiling endpoints on the serving mux (mounted explicitly rather than
	// relying on the net/http/pprof DefaultServeMux registration)
	root.HandleFunc("/debug/pprof/", pprof.Index)
	root.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	root.HandleFunc("/debug/pprof/profile", pprof.Profile)
	root.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	root.HandleFunc("/debug/pprof/trace", pprof.Trace)
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
// JSON API with query cache and admission control, the HTML webui served
// inside the same service, and — with -watch — a background rebuild loop that
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
		logger.Info("watching sources")
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
	report, err := nvvp.ParseReport(text)
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
	reg, err := corpus.ParseRegister(register)
	if err != nil {
		return err
	}
	g := corpus.Generate(reg, seed)
	return os.WriteFile(path, []byte(g.RenderHTML()), 0o644)
}
