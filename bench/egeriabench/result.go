package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Metric is one measured value.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Host records where a result was measured.
type Host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Kernel     string `json:"kernel"`
}

// Result is one run of one workload, as appended to an -out file.
type Result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"` // measured phase, both servers
	Trace     bool     `json:"trace"`
	Host      Host     `json:"host"`
	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Metrics   []Metric `json:"metrics"`
}

// metricDef is an end-to-end metric of BENCHMARK.json.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the baseline median a change may lose
}

// endToEnd lists the end-to-end metrics in BENCHMARK.json order. Bounds
// come from repeated runs on a 2-vCPU host (see README.md).
var endToEnd = []metricDef{
	{"throughput_rps", "1/s", "higher", 0.20},
	{"latency_p50_ms", "ms", "lower", 0.20},
	{"server_cpu_us_per_req", "us", "lower", 0.20},
	{"rss_mb", "MB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer lists the per-layer metric names in BENCHMARK.json order.
var perLayer = []string{
	"service.handler.p50_us", "service.handler.p99_us",
	"service.query.p50_us", "service.query.p99_us",
	"service.admission.mean_us",
	"nlp.normalize.p50_us", "nlp.normalize.terms_mean",
	"service.cache.hit_ratio", "service.cache.hit_p50_us", "service.cache.miss_p50_us",
	"service.encode.p50_us", "service.encode.bytes_mean",
	"service.orchestration.mean_us",
	"core.query.calls", "core.query.p50_us", "core.query.p99_us", "core.query.answers_mean",
	"nvvp.parse.p50_us", "nvvp.parse.issues_mean",
	"core.build.ms", "core.build.annotate_ms", "core.build.classify_ms", "core.build.index_ms", "core.build.sentences",
	"textproc.tokenize.total_ms", "textproc.tokenize.p99_us",
	"postag.tag.total_ms", "postag.tag.p99_us",
	"depparse.parse.total_ms", "depparse.parse.p99_us",
	"srl.label.total_ms", "srl.label.p99_us",
	"selectors.classify.total_ms", "selectors.classify.p99_us",
	"core.update.p50_ms", "core.update.reannotated_mean",
	"service.cache.hit_ratio_live",
	"client.latency_p99_ms", "client.latency_p999_ms", "client.samples", "client.slice_spread",
	"client.raw_throughput_rps", "client.raw_latency_p50_ms", "client.raw_setup_s",
	"host.reference_rps", "host.reference_build_ms",
	"trace.overhead_frac",
}

// summary is the last line a run prints: the metrics of one trace mode.
type summary struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summaryLine renders r's summary: every end-to-end metric untraced, every
// per-layer metric traced.
func summaryLine(r *Result) ([]byte, error) {
	var names []string
	if r.Trace {
		names = perLayer
	} else {
		for _, d := range endToEnd {
			names = append(names, d.Name)
		}
	}
	s := summary{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]valueUnit{}}
	for _, name := range names {
		m, ok := r.metric(name)
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", name)
		}
		s.Metrics[name] = valueUnit{m.Value, m.Unit}
	}
	return json.Marshal(s)
}

func (r *Result) metric(name string) (Metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// appendResult adds r to a run-set file, one JSON object per line.
func appendResult(path string, r *Result) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readResults reads a run-set file.
func readResults(path string) ([]*Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*Result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r Result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, &r)
	}
	return out, sc.Err()
}

// verdicts of a comparison
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// row compares one end-to-end metric of one workload between two run sets.
type row struct {
	Workload, Metric string
	Base, New        float64 // medians over the untraced runs
	Delta            float64 // (New-Base)/Base
	Bound            float64
	Spread           float64 // larger quartile spread of the two sets
	Verdict          string
}

// compareSets compares every workload × end-to-end metric of next against
// base. A worsening beyond the bound is a regression; when either set's
// quartile spread exceeds the bound the metric is unresolved instead,
// unless every run of next is better than every run of base.
func compareSets(base, next []*Result) []row {
	values := func(rs []*Result, w, name string) []float64 {
		var xs []float64
		for _, r := range rs {
			if r.Workload != w || r.Trace {
				continue
			}
			if m, ok := r.metric(name); ok {
				xs = append(xs, m.Value)
			}
		}
		return xs
	}
	workloads := map[string]bool{}
	for _, r := range append(append([]*Result(nil), base...), next...) {
		workloads[r.Workload] = true
	}
	var names []string
	for w := range workloads {
		names = append(names, w)
	}
	sort.Strings(names)
	var rows []row
	for _, w := range names {
		for _, d := range endToEnd {
			b, n := values(base, w, d.Name), values(next, w, d.Name)
			if len(b) == 0 || len(n) == 0 {
				continue
			}
			r := row{Workload: w, Metric: d.Name, Base: median(b), New: median(n), Bound: d.Bound}
			r.Spread = math.Max(spread(b), spread(n))
			if r.Base != 0 {
				r.Delta = (r.New - r.Base) / math.Abs(r.Base)
			}
			worse := r.Delta
			if d.Better == "higher" {
				worse = -worse
			}
			switch {
			case allBetter(n, b, d.Better):
				r.Verdict = verdictOK
			case r.Spread > d.Bound:
				r.Verdict = verdictUnresolved
			case worse > d.Bound:
				r.Verdict = verdictRegressed
			default:
				r.Verdict = verdictOK
			}
			rows = append(rows, r)
		}
	}
	return rows
}

// allBetter reports whether every value of n beats every value of b.
func allBetter(n, b []float64, better string) bool {
	nb, bb := sortedCopy(n), sortedCopy(b)
	if better == "higher" {
		return nb[0] > bb[len(bb)-1]
	}
	return nb[len(nb)-1] < bb[0]
}

func printRows(w io.Writer, rows []row) {
	fmt.Fprintf(w, "%-11s %-22s %12s %12s %8s %6s %7s  %s\n", "workload", "metric", "base", "new", "delta", "bound", "spread", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-11s %-22s %12.4g %12.4g %+7.1f%% %5.0f%% %6.1f%%  %s\n",
			r.Workload, r.Metric, r.Base, r.New, 100*r.Delta, 100*r.Bound, 100*r.Spread, r.Verdict)
	}
}

// runCompare implements -compare: the first file is the baseline set and
// every later file is compared with it. It returns an error on any
// regression.
func runCompare(w io.Writer, files []string) error {
	if len(files) < 2 {
		return fmt.Errorf("-compare needs a baseline run set and at least one more")
	}
	base, err := readResults(files[0])
	if err != nil {
		return err
	}
	regressed := 0
	for _, f := range files[1:] {
		next, err := readResults(f)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s vs %s\n", f, files[0])
		rows := compareSets(base, next)
		printRows(w, rows)
		for _, r := range rows {
			if r.Verdict == verdictRegressed {
				regressed++
			}
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metric(s) regressed", regressed)
	}
	return nil
}

// hostInfo describes the machine and the checkout being measured.
func hostInfo() Host {
	h := Host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: gitCommit(".")}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(data))
	}
	return h
}

// gitCommit reads the checked-out commit from root/.git without running
// git; "unknown" outside a git checkout.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	if packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if id, name, ok := strings.Cut(line, " "); ok && name == ref {
				return id
			}
		}
	}
	return "unknown"
}
