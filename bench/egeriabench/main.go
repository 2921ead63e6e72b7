// Command egeriabench is the repository's end-to-end benchmark. It boots
// the real `egeria serve`, drives one of three closed-loop HTTP workloads
// over loopback with two keep-alive connections, checks every answer
// against an in-process build of the same guides, and prints every metric
// as `workload metric value unit`. The load alternates in slices with a
// fixed reference server on the same CPU, and every end-to-end timing is
// scaled by the reference's speed around it (see reference.go). With
// -trace 1 it also replays the workload in-process, timing each layer's
// public function from outside, and prints the per-layer metrics.
//
// Run it through bench/run.sh from the repository root, which builds both
// binaries from source into bench/.build/:
//
//	bash bench/run.sh -workload hot-query -seed 1 -seconds 24 -trace 0
//	bash bench/run.sh -seed 1 -seconds 24 -out bench/.build/mine.jsonl
//	bash bench/run.sh -smoke
//	bash bench/run.sh -compare bench/runs/set-seed1.jsonl bench/.build/mine.jsonl
//
// The last line of a run is one JSON object with the keys correct,
// attempted, failed and metrics: the end-to-end metrics untraced, the
// per-layer metrics traced.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

var workloadNames = []string{"hot-query", "cold-query", "report"}

const (
	bootCount = 5 // cold boots per run; setup_s is their median
	buildDir  = "bench/.build"
)

// serverBin is where bench/run.sh builds egeria.
var serverBin = filepath.Join(buildDir, "egeria")

// config is one invocation's settings.
type config struct {
	seed          int64
	warmup, pairs int // slice pairs: discarded, then measured
	trace         bool
	replayN       int // 0: the workload's replaySize
	out           string
	spans         string
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload: "+strings.Join(workloadNames, ", ")+", or all")
		seed     = flag.Int64("seed", 1, "seed every input is generated from")
		seconds  = flag.Float64("seconds", 24, "length of the measured phase, in seconds; egeria and the reference server get half each")
		trace    = flag.Int("trace", 0, "1: also replay the workload in-process and print the per-layer metrics")
		out      = flag.String("out", "", "append each run's result as one JSON line to this run-set file")
		spans    = flag.String("spans", "", "traced runs write their spans here as JSONL (default "+buildDir+"/spans/<workload>-seed<n>.jsonl)")
		smoke    = flag.Bool("smoke", false, "harness check: every workload traced, 2 s measured, 500-request replay")
		compare  = flag.Bool("compare", false, "compare the run-set files given as arguments with the first; exit 1 on a regression")
		refAddr  = flag.String("reference-server", "", "serve the reference load on this address until stopped (runs start it themselves)")
	)
	flag.Parse()
	if *refAddr != "" {
		fatal(serveReference(*refAddr))
	}
	if *compare {
		if err := runCompare(os.Stdout, flag.Args()); err != nil {
			fatal(err)
		}
		return
	}
	cfg := config{seed: *seed, trace: *trace == 1, out: *out, spans: *spans}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	if *smoke {
		names, *seconds, cfg.trace, cfg.replayN = workloadNames, 2, true, 500
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace is 0 or 1, not %d", *trace))
	}
	if !(*seconds > 0) {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	cfg.pairs = max(1, int(time.Duration(*seconds*float64(time.Second))/(2*sliceDur)))
	cfg.warmup = max(2, cfg.pairs/10)
	if _, err := os.Stat(serverBin); err != nil {
		fatal(fmt.Errorf("server binary: %w (build it with bench/run.sh)", err))
	}
	allCorrect := true
	for _, name := range names {
		r, err := runWorkload(cfg, name)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		for _, m := range r.Metrics {
			fmt.Printf("%s %s %s %s\n", r.Workload, m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
		}
		if cfg.out != "" {
			if err := appendResult(cfg.out, r); err != nil {
				fatal(fmt.Errorf("write %s: %w", cfg.out, err))
			}
		}
		line, err := summaryLine(r)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		allCorrect = allCorrect && r.Correct
	}
	if !allCorrect {
		fmt.Fprintln(os.Stderr, "egeriabench: some answers were wrong")
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "egeriabench:", err)
	os.Exit(1)
}

// runWorkload is one run: cold boots and the load phase on one CPU, the
// answer check, and with tracing the in-process replay.
func runWorkload(cfg config, name string) (*Result, error) {
	sc, err := newScenario(name, cfg.seed)
	if err != nil {
		return nil, err
	}
	workRoot := filepath.Join(buildDir, "work")
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(workRoot, name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	docPath, err := filepath.Abs(filepath.Join(work, primaryAdvisor+".html"))
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(docPath, []byte(sc.primary), 0o644); err != nil {
		return nil, err
	}

	lr, boots, rss, err := measure(cfg, sc, docPath)
	if err != nil {
		return nil, err
	}
	o := newOracle(sc)
	wrong, err := o.verifyAll(lr.records, sc.stream)
	if err != nil {
		return nil, fmt.Errorf("check answers: %w", err)
	}
	r := &Result{
		Workload:  name,
		Seed:      cfg.seed,
		Seconds:   float64(cfg.pairs) * 2 * sliceDur.Seconds(),
		Trace:     cfg.trace,
		Host:      hostInfo(),
		Attempted: int64(len(lr.records)),
		Failed:    int64(wrong),
		Metrics:   loadMetrics(lr, boots, rss),
	}
	r.Correct = r.Failed == 0
	if cfg.trace {
		n := cfg.replayN
		if n == 0 {
			n = replaySize[name]
		}
		path := cfg.spans
		if path == "" {
			path = filepath.Join(buildDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", name, cfg.seed))
		}
		lm, err := runReplay(o, sc, n, path)
		if err != nil {
			return nil, err
		}
		r.Metrics = append(r.Metrics, lm...)
	}
	return r, nil
}

// measure pins the process to one CPU, boots egeria bootCount times (the
// last server stays up), starts the reference server and runs the load
// phase. It returns the load, the boots and the server's peak RSS in MB,
// with both servers stopped and the process unpinned.
func measure(cfg config, sc *scenario, docPath string) (lr *loadResult, bt *bootTimes, rss float64, err error) {
	restore, err := pinToOneCPU()
	if err != nil {
		return nil, nil, 0, err
	}
	defer func() {
		if rerr := restore(); err == nil && rerr != nil {
			err = fmt.Errorf("unpin: %w", rerr)
		}
	}()
	args := func(addr string) []string { return append(sc.serverArgs(docPath), "serve", "-addr", addr) }
	var srv *server
	bt = &bootTimes{probeMs: []float64{refBuild()}}
	for b := 0; b < bootCount; b++ {
		s, d, err := startServer(serverBin, args, "/readyz")
		if err != nil {
			return nil, nil, 0, err
		}
		if b == bootCount-1 {
			srv = s
		} else if err := s.stop(); err != nil {
			return nil, nil, 0, err
		}
		bt.s = append(bt.s, d.Seconds())
		bt.probeMs = append(bt.probeMs, refBuild())
	}
	defer func() {
		if serr := srv.stop(); err == nil && serr != nil {
			err = serr
		}
	}()
	self, err := os.Executable()
	if err != nil {
		return nil, nil, 0, err
	}
	ref, _, err := startServer(self, func(addr string) []string { return []string{"-reference-server", addr} }, "/ref?q=ready")
	if err != nil {
		return nil, nil, 0, fmt.Errorf("reference server: %w", err)
	}
	defer func() {
		if serr := ref.stop(); err == nil && serr != nil {
			err = fmt.Errorf("reference server: %w", serr)
		}
	}()
	lr, err = runLoad(sc, srv, ref.base, cfg.warmup, cfg.pairs)
	if err != nil {
		return nil, nil, 0, err
	}
	if lr.refFailed > 0 {
		return nil, nil, 0, fmt.Errorf("%d reference requests failed", lr.refFailed)
	}
	rss, err = peakRSSMB(srv.cmd.Process.Pid)
	return lr, bt, rss, err
}

// bootTimes are a run's boots, exec to ready, with refBuild timed before
// the first boot and after each one.
type bootTimes struct {
	s       []float64 // seconds
	probeMs []float64 // len(s)+1 refBuild times
}

// scaled returns every boot time scaled to refBuildNominalMs by the mean
// refBuild time on either side of the boot.
func (bt *bootTimes) scaled() []float64 {
	out := make([]float64, len(bt.s))
	for b, s := range bt.s {
		out[b] = s * refBuildNominalMs / ((bt.probeMs[b] + bt.probeMs[b+1]) / 2)
	}
	return out
}

// speeds returns, for every egeria slice, how fast the host served the
// reference load around it, relative to refNominalRPS: the mean reference
// throughput of the slices on either side, over refNominalRPS.
func speeds(lr *loadResult) []float64 {
	f := make([]float64, len(lr.egeria))
	for k := range lr.egeria {
		f[k] = (lr.ref[k].rps() + lr.ref[k+1].rps()) / 2 / refNominalRPS
	}
	return f
}

// loadMetrics reduces a load phase to the end-to-end metrics and the
// per-layer metrics read from outside the server. Every end-to-end timing
// is scaled to the reference's nominal speed slice by slice: throughput is
// divided by the slice's speed, latency and CPU time multiplied by it.
func loadMetrics(lr *loadResult, boots *bootTimes, rss float64) []Metric {
	f := speeds(lr)
	var tput, rawTput, lat, rawLat, refTput []float64
	var cpuUs float64
	n := 0
	for k, s := range lr.egeria {
		tput = append(tput, s.rps()/f[k])
		rawTput = append(rawTput, s.rps())
		for _, ms := range s.latMs {
			lat = append(lat, ms*f[k])
			rawLat = append(rawLat, ms)
		}
		cpuUs += float64(s.ticks) * (1e6 / clockTicks) * f[k]
		n += len(s.latMs)
	}
	for _, s := range lr.ref {
		refTput = append(refTput, s.rps())
	}
	lat, rawLat = sortedCopy(lat), sortedCopy(rawLat)
	if !supported(len(lat), 0.99) {
		fmt.Fprintf(os.Stderr, "egeriabench: %d samples leave fewer than %d beyond the p99\n", len(lat), minBeyond)
	}
	ratio := func(a, b int64) float64 {
		if a+b == 0 {
			return 0
		}
		return float64(a) / float64(a+b)
	}
	hits := lr.after.CacheHits - lr.before.CacheHits
	misses := lr.after.CacheMisses - lr.before.CacheMisses
	return []Metric{
		{Name: "throughput_rps", Value: median(tput), Unit: "1/s"},
		{Name: "latency_p50_ms", Value: percentile(lat, 0.5), Unit: "ms"},
		{Name: "server_cpu_us_per_req", Value: cpuUs / float64(max(n, 1)), Unit: "us"},
		{Name: "rss_mb", Value: rss, Unit: "MB"},
		{Name: "setup_s", Value: median(boots.scaled()), Unit: "s"},
		{Name: "service.cache.hit_ratio_live", Value: ratio(hits, misses), Unit: "ratio"},
		{Name: "client.latency_p99_ms", Value: percentile(lat, 0.99), Unit: "ms"},
		{Name: "client.latency_p999_ms", Value: percentile(lat, 0.999), Unit: "ms"},
		{Name: "client.samples", Value: float64(n), Unit: "count"},
		{Name: "client.slice_spread", Value: spread(tput), Unit: "ratio"},
		{Name: "client.raw_throughput_rps", Value: median(rawTput), Unit: "1/s"},
		{Name: "client.raw_latency_p50_ms", Value: percentile(rawLat, 0.5), Unit: "ms"},
		{Name: "client.raw_setup_s", Value: median(boots.s), Unit: "s"},
		{Name: "host.reference_rps", Value: median(refTput), Unit: "1/s"},
		{Name: "host.reference_build_ms", Value: median(boots.probeMs), Unit: "ms"},
	}
}
