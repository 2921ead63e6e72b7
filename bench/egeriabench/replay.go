package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/depparse"
	"repro/internal/htmldoc"
	"repro/internal/nlp"
	"repro/internal/nvvp"
	"repro/internal/obs"
	"repro/internal/postag"
	"repro/internal/service"
	"repro/internal/srl"
	"repro/internal/textproc"
)

const (
	replayEdits  = 20   // document edits applied in every replay
	parseProbe   = 2000 // report-stream bodies parsed for nvvp.parse
	hitProbeKeys = 256  // recently stored keys looked up again after the stream
)

// replaySize is how many stream requests a workload's replay feeds.
var replaySize = map[string]int{"hot-query": 40000, "cold-query": 10000, "report": 5000}

// span is one timed call into a layer. The benchmark records it around
// the call; nothing inside the program is instrumented.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    int    `json:"req"` // request ID shared by a request's spans; 0 outside requests
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int    `json:"n,omitempty"`   // terms, answers, bytes, issues or sentences, by span name
	Hit    bool   `json:"hit,omitempty"` // cache: answered without scoring
}

func (s span) us() float64 { return float64(s.End-s.Start) / 1e3 }

// tracer keeps spans in memory; a disabled tracer records nothing.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, req int) int {
	if !t.on {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id, n int) {
	if id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	s.N = n
}

func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stack is one fresh copy of the serving path: two services (one timed
// through ServeHTTP, one through CachedQueryFull) and the layers called one
// by one with their own Admission and Cache. All three start empty and see
// the same requests, so they see the same hits.
type stack struct {
	handler, query *service.Service
	admit          *service.Admission
	cache          *service.Cache
	live           map[string]*core.Advisor
	keys           []string // cache keys in the order the layer path stored them
}

func newStack(o *oracle) *stack {
	st := &stack{
		admit: service.NewAdmission(64, 256, &service.Stats{}),
		cache: service.NewCache(1024, 8, &service.Stats{}),
		live:  make(map[string]*core.Advisor),
	}
	regH, regQ := service.NewRegistry(), service.NewRegistry()
	for name, a := range o.advisors {
		regH.Add(name, a)
		regQ.Add(name, a)
		st.live[name] = a
	}
	st.handler = service.New(regH, service.Options{Metrics: obs.NewRegistry()})
	st.query = service.New(regQ, service.Options{Metrics: obs.NewRegistry()})
	return st
}

// replayStats are the outcomes a replay pass counts besides its spans.
type replayStats struct {
	wall   time.Duration // time spent on the first k requests
	wrong  int           // handler bodies or service answers that differ from the layer path
	misses int           // layer-path cache misses
}

// replayPass feeds the replay's n stream requests through a fresh stack, or
// only the first k when tr is off: an untraced pass exists to be timed. It
// returns the time spent on the first k.
func replayPass(o *oracle, sc *scenario, n, k int, tr *tracer) (replayStats, error) {
	var rs replayStats
	st := newStack(o)
	limit := n
	if !tr.on {
		limit = k
	}
	for i := 0; i < limit; i++ {
		start := time.Now()
		if err := st.request(sc.stream.at(i), i+1, tr, &rs); err != nil {
			return rs, fmt.Errorf("replay request %d: %w", i, err)
		}
		if i < k {
			rs.wall += time.Since(start)
		}
	}
	if tr.on {
		// a hit is timed on every workload, cold-query included: look up
		// again the last keys the stream stored, skipping any evicted since
		for _, key := range st.keys[max(len(st.keys)-hitProbeKeys, 0):] {
			start := int64(time.Since(tr.t0))
			_, hit, err := st.cache.GetOrCompute(key, func() ([]core.Answer, error) { return nil, errEvicted })
			if err == nil && hit {
				tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Name: "cache", Start: start, End: int64(time.Since(tr.t0)), Hit: true})
			}
		}
	}
	return rs, nil
}

var errEvicted = errors.New("evicted")

// request replays one stream request: the handler, then the layers in the
// handler's order, then CachedQueryFull for each query the request makes.
func (st *stack) request(req request, rid int, tr *tracer, rs *replayStats) error {
	ctx := context.Background()
	h := tr.begin("handler", 0, rid)
	rec := httptest.NewRecorder()
	st.handler.ServeHTTP(rec, httpRequest(req))
	tr.end(h, rec.Body.Len())

	root := tr.begin("request", 0, rid)
	queries := []string{strings.TrimSpace(req.query)}
	var rep *nvvp.Report
	if req.report != nil {
		p := tr.begin("parse", root, rid)
		var err error
		if rep, err = parseReport(req.report); err != nil {
			return err
		}
		issues := rep.Issues()
		tr.end(p, len(issues))
		queries = queries[:0]
		for _, is := range issues {
			queries = append(queries, is.Query())
		}
	}
	answers := make([][]core.Answer, len(queries))
	adv := st.live[req.advisor]
	for qi, q := range queries {
		a := tr.begin("admission", root, rid)
		if err := st.admit.Acquire(ctx); err != nil {
			return err
		}
		st.admit.Release()
		tr.end(a, 0)

		nz := tr.begin("normalize", root, rid)
		terms := nlp.QueryTerms(q)
		tr.end(nz, len(terms))

		c := tr.begin("cache", root, rid)
		key := service.QueryKeyFull(req.advisor, "", true, terms)
		as, hit, err := st.cache.GetOrCompute(key, func() ([]core.Answer, error) {
			s := tr.begin("score", c, rid)
			out, err := answer(adv, terms)
			tr.end(s, len(out))
			return out, err
		})
		if err != nil {
			return err
		}
		tr.end(c, 0)
		if c > 0 {
			tr.spans[c-1].Hit = hit
		}
		if !hit {
			rs.misses++
			st.keys = append(st.keys, key)
		}
		answers[qi] = as
	}
	e := tr.begin("encode", root, rid)
	body, err := encodeBody(responseFor(req, rep, answers))
	if err != nil {
		return err
	}
	tr.end(e, len(body))
	tr.end(root, 0)
	if rec.Code != http.StatusOK || bodyHash(rec.Body.Bytes()) != bodyHash(body) {
		rs.wrong++
	}

	for qi, q := range queries {
		s := tr.begin("query", 0, rid)
		got, _, _, err := st.query.CachedQueryFull(ctx, req.advisor, "", q)
		tr.end(s, len(got))
		if err != nil || !sameAnswers(got, answers[qi]) {
			rs.wrong++
		}
	}
	return nil
}

func httpRequest(req request) *http.Request {
	if req.report != nil {
		return httptest.NewRequest(http.MethodPost, "/v1/"+req.advisor+"/report", bytes.NewReader(req.report))
	}
	return httptest.NewRequest(http.MethodGet, "/v1/"+req.advisor+"/query?q="+url.QueryEscape(req.query), nil)
}

// responseFor is the body the handler writes for req, without a trace ID.
func responseFor(req request, rep *nvvp.Report, answers [][]core.Answer) any {
	if rep == nil {
		q := strings.TrimSpace(req.query)
		return service.QueryResponse{Advisor: req.advisor, Query: q, Count: len(answers[0]), Answers: toAnswers(answers[0])}
	}
	resp := service.ReportResponse{Advisor: req.advisor, Program: rep.Program}
	for i, is := range rep.Issues() {
		resp.Issues = append(resp.Issues, service.IssueAnswers{
			Title: is.Title, Section: is.Section, Count: len(answers[i]), Answers: toAnswers(answers[i]),
		})
	}
	return resp
}

func sameAnswers(a, b []core.Answer) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Sentence.Index != b[i].Sentence.Index || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// applyEdit rebuilds prev for document version v, timed as an update span
// whose n is the number of sentences Stage I ran on again.
func applyEdit(o *oracle, sc *scenario, tr *tracer, prev *core.Advisor, v int) (*core.Advisor, error) {
	html := sc.edits.version(v)
	u := tr.begin("update", 0, 0)
	a, stats, err := o.update(prev, html)
	if err != nil {
		return nil, err
	}
	tr.end(u, stats.Sentences-stats.Reused)
	return a, nil
}

// probeLayers times the build path sentence by sentence over the primary
// guide, replayEdits document updates of it, and report parsing over the
// report stream.
func probeLayers(o *oracle, sc *scenario, tr *tracer, parseN int) error {
	rec := o.fw.Recognizer()
	for _, s := range htmldoc.Parse(sc.primary).Sentences() {
		t := tr.begin("textproc.tokenize", 0, 0)
		words := textproc.Words(s.Text)
		tr.end(t, len(words))
		t = tr.begin("postag.tag", 0, 0)
		tags := postag.Tags(words)
		tr.end(t, len(tags))
		t = tr.begin("depparse.parse", 0, 0)
		tree := depparse.ParseTagged(words, tags)
		tr.end(t, len(tree.Words))
		t = tr.begin("srl.label", 0, 0)
		frames := srl.Label(tree)
		tr.end(t, len(frames))
		ann := nlp.FromTree(s.Text, tree)
		t = tr.begin("selectors.classify", 0, 0)
		res := rec.ClassifyAnnotated(ann)
		tr.end(t, int(res.Selector))
	}
	prev := o.advisors[primaryAdvisor]
	for v := 1; v <= replayEdits; v++ {
		a, err := applyEdit(o, sc, tr, prev, v)
		if err != nil {
			return err
		}
		prev = a
	}
	reports := reportStream(sc.seed)
	for i := 0; i < parseN; i++ {
		t := tr.begin("nvvp.parse", 0, 0)
		rep, err := parseReport(reports.at(i).report)
		if err != nil {
			return err
		}
		tr.end(t, len(rep.Issues()))
	}
	return nil
}

// runReplay measures the per-layer metrics of one workload: an untraced
// pass over the first quarter of the replay, then a traced pass over all of
// it (its first quarter timed the same way, for the tracing overhead), then
// the layer probes. A short untraced pass first warms the process up, so
// neither timed pass pays for first use.
func runReplay(o *oracle, sc *scenario, n int, spansPath string) ([]Metric, error) {
	k := max(n/4, 1)
	if _, err := replayPass(o, sc, n, min(k, 1000), &tracer{}); err != nil {
		return nil, err
	}
	off, err := replayPass(o, sc, n, k, &tracer{})
	if err != nil {
		return nil, err
	}
	tr := &tracer{on: true, t0: time.Now()}
	on, err := replayPass(o, sc, n, k, tr)
	if err != nil {
		return nil, err
	}
	if err := probeLayers(o, sc, tr, min(parseProbe, n)); err != nil {
		return nil, err
	}
	if off.wrong+on.wrong > 0 {
		return nil, fmt.Errorf("replay: %d responses differ from the layer-by-layer path", off.wrong+on.wrong)
	}
	ms := layerMetrics(tr.spans, o.stats)
	calls := metricValue(ms, "core.query.calls")
	if int(calls) != on.misses {
		return nil, fmt.Errorf("replay: %v scoring calls for %d cache misses", calls, on.misses)
	}
	ms = append(ms, Metric{Name: "trace.overhead_frac", Value: on.wall.Seconds()/off.wall.Seconds() - 1, Unit: "ratio"})
	if spansPath != "" {
		if err := tr.writeJSONL(spansPath); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	return ms, nil
}

// layerMetrics reduces spans (and the oracle's build statistics) to the
// per-layer metrics.
func layerMetrics(spans []span, builds []core.BuildStats) []Metric {
	us := map[string][]float64{}
	ns := map[string][]float64{}
	var hitUs, missUs, streamCache []float64
	hits, lookups := 0, 0
	for _, s := range spans {
		us[s.Name] = append(us[s.Name], s.us())
		ns[s.Name] = append(ns[s.Name], float64(s.N))
		if s.Name != "cache" {
			continue
		}
		if s.Hit {
			hitUs = append(hitUs, s.us())
		} else {
			missUs = append(missUs, s.us())
		}
		if s.Req > 0 {
			streamCache = append(streamCache, s.us())
			lookups++
			if s.Hit {
				hits++
			}
		}
	}
	p := func(xs []float64, q float64) float64 { return percentile(sortedCopy(xs), q) }
	var ms []Metric
	add := func(name string, v float64, unit string) { ms = append(ms, Metric{Name: name, Value: v, Unit: unit}) }
	add("service.handler.p50_us", p(us["handler"], 0.5), "us")
	add("service.handler.p99_us", p(us["handler"], 0.99), "us")
	add("service.query.p50_us", p(us["query"], 0.5), "us")
	add("service.query.p99_us", p(us["query"], 0.99), "us")
	add("service.admission.mean_us", mean(us["admission"]), "us")
	add("nlp.normalize.p50_us", p(us["normalize"], 0.5), "us")
	add("nlp.normalize.terms_mean", mean(ns["normalize"]), "count")
	add("service.cache.hit_ratio", float64(hits)/float64(max(lookups, 1)), "ratio")
	add("service.cache.hit_p50_us", p(hitUs, 0.5), "us")
	add("service.cache.miss_p50_us", p(missUs, 0.5), "us")
	add("service.encode.p50_us", p(us["encode"], 0.5), "us")
	add("service.encode.bytes_mean", mean(ns["encode"]), "bytes")
	add("service.orchestration.mean_us", mean(us["query"])-mean(us["admission"])-mean(us["normalize"])-mean(streamCache), "us")
	add("core.query.calls", float64(len(us["score"])), "count")
	add("core.query.p50_us", p(us["score"], 0.5), "us")
	add("core.query.p99_us", p(us["score"], 0.99), "us")
	add("core.query.answers_mean", mean(ns["score"]), "count")
	add("nvvp.parse.p50_us", p(us["nvvp.parse"], 0.5), "us")
	add("nvvp.parse.issues_mean", mean(ns["nvvp.parse"]), "count")
	var b core.BuildStats
	for _, s := range builds {
		b.Sentences += s.Sentences
		b.Annotate += s.Annotate
		b.Classify += s.Classify
		b.StageI += s.StageI
		b.Indexing += s.Indexing
	}
	msOf := func(d time.Duration) float64 { return float64(d) / 1e6 }
	add("core.build.ms", msOf(b.StageI+b.Indexing), "ms")
	add("core.build.annotate_ms", msOf(b.Annotate), "ms")
	add("core.build.classify_ms", msOf(b.Classify), "ms")
	add("core.build.index_ms", msOf(b.Indexing), "ms")
	add("core.build.sentences", float64(b.Sentences), "count")
	for _, layer := range []string{"textproc.tokenize", "postag.tag", "depparse.parse", "srl.label", "selectors.classify"} {
		sum := 0.0
		for _, v := range us[layer] {
			sum += v
		}
		add(layer+".total_ms", sum/1e3, "ms")
		add(layer+".p99_us", p(us[layer], 0.99), "us")
	}
	add("core.update.p50_ms", p(us["update"], 0.5)/1e3, "ms")
	add("core.update.reannotated_mean", mean(ns["update"]), "count")
	return ms
}

func metricValue(ms []Metric, name string) float64 {
	for _, m := range ms {
		if m.Name == name {
			return m.Value
		}
	}
	return math.NaN()
}
