// Benchmarks regenerating every table and figure of the paper's evaluation
// (run with `go test -bench=. -benchmem`), plus the performance ablations of
// DESIGN.md: per-NLP-layer cost, serial vs parallel Stage I, Stage-II
// retrieval across query shapes, and document-size scaling.
package repro_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/depparse"
	"repro/internal/experiments"
	"repro/internal/nlp"
	"repro/internal/nvvp"
	"repro/internal/obs"
	"repro/internal/postag"
	"repro/internal/selectors"
	"repro/internal/service"
	"repro/internal/srl"
	"repro/internal/study"
	"repro/internal/textproc"
)

var (
	setupOnce   sync.Once
	cudaGuide   *corpus.Guide
	cudaAdvisor *core.Advisor
)

func setup(b *testing.B) (*corpus.Guide, *core.Advisor) {
	b.Helper()
	setupOnce.Do(func() {
		cudaGuide, cudaAdvisor = experiments.BuildAdvisor(corpus.CUDA)
	})
	return cudaGuide, cudaAdvisor
}

// --- one benchmark per table / figure -------------------------------------

func BenchmarkTable3_ReportExtraction(b *testing.B) {
	text, err := nvvp.Synthesize("norm")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nvvp.Parse(text); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4_QueryAnswer(b *testing.B) {
	_, adv := setup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adv.Query("reduce instruction and memory latency")
	}
}

func BenchmarkTable5_UserStudy(b *testing.B) {
	_, adv := setup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := study.Run(adv, study.DefaultParams()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable6_AnswerQuality(b *testing.B) {
	g, adv := setup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Table6(g, adv)
	}
}

func BenchmarkTable7_Compression(b *testing.B) {
	// full Stage-I pipeline over the 558-sentence Xeon guide per iteration
	g := corpus.Generate(corpus.XeonPhi, experiments.Seed)
	fw := core.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adv := fw.BuildFromSentences(g.Doc, g.Sentences)
		_ = adv.CompressionRatio()
	}
}

func BenchmarkTable8_Recognition(b *testing.B) {
	g := corpus.Generate(corpus.CUDA, experiments.Seed)
	texts, _ := g.EvalSentences()
	rec := selectors.Default()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range texts {
			rec.ClassifyAnnotated(nlp.Annotate(s))
		}
	}
}

func BenchmarkFig2_DependencyParse(b *testing.B) {
	sentences := [][]string{
		textproc.Words("Thus, a developer may prefer using buffers instead of images if no sampling operation is needed."),
		textproc.Words("This synchronization guarantee can often be leveraged to avoid explicit clWaitForEvents() calls between command submissions."),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		depparse.ParseWords(sentences[i%2])
	}
}

func BenchmarkFig3_SRL(b *testing.B) {
	tree := depparse.ParseText("The first step in maximizing overall memory throughput for the application is to minimize data transfers with low bandwidth.")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srl.Label(tree)
	}
}

func BenchmarkFig5_KernelModel(b *testing.B) {
	_, adv := setup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := study.SurfacedOptimizations(adv); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6_WebRuleList(b *testing.B) {
	_, adv := setup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = adv.Rules()
		_ = adv.CompressionRatio()
	}
}

// --- NLP layer cost ablation ----------------------------------------------

var layerSentence = "The number of threads per block should be chosen as a multiple of the warp size to avoid wasting computing resources with under-populated warps as much as possible."

func BenchmarkLayer1_Tokenize(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		textproc.Words(layerSentence)
	}
}

func BenchmarkLayer2_POSTag(b *testing.B) {
	words := textproc.Words(layerSentence)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postag.Tags(words)
	}
}

func BenchmarkLayer3_DependencyParse(b *testing.B) {
	words := textproc.Words(layerSentence)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		depparse.ParseWords(words)
	}
}

func BenchmarkLayer4_SRL(b *testing.B) {
	tree := depparse.ParseText(layerSentence)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srl.Label(tree)
	}
}

func BenchmarkLayer5_Selectors(b *testing.B) {
	rec := selectors.Default()
	tree := depparse.ParseText(layerSentence)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.ClassifyAnnotated(nlp.FromTree("", tree))
	}
}

// --- parallelism ablations -------------------------------------------------

func benchStageI(b *testing.B, workers int) {
	g := corpus.GenerateSized(corpus.CUDA, 400, 0.2, 11)
	fw := core.New(core.WithParallelism(workers))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fw.BuildFromSentences(g.Doc, g.Sentences)
	}
}

func BenchmarkStageI_Serial(b *testing.B)   { benchStageI(b, 1) }
func BenchmarkStageI_Parallel(b *testing.B) { benchStageI(b, 0) } // GOMAXPROCS

// --- serving layer -----------------------------------------------------------

// newBenchService serves the CUDA advisor with a metrics registry of its
// own, so allMisses reads this service's lookups and not the ones another
// benchmark counted into the process-wide default.
func newBenchService(b *testing.B) *service.Service {
	_, adv := setup(b)
	reg := service.NewRegistry()
	reg.Add("cuda", adv)
	return service.New(reg, service.Options{
		CacheSize:   8192,
		MaxInFlight: 64,
		Timeout:     30 * time.Second,
		Metrics:     obs.NewRegistry(),
	})
}

// guideWords returns the lowercase words of the first advisor's rules that
// every advisor's guide uses, each normalizing to one term and no two to
// the same term.
func guideWords(advs ...*core.Advisor) []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range advs[0].Rules() {
		for _, w := range strings.Fields(strings.ToLower(r.Text)) {
			w = strings.Trim(w, ".,;:()")
			terms := nlp.QueryTerms(w)
			if strings.Trim(w, "abcdefghijklmnopqrstuvwxyz") != "" || len(terms) != 1 || seen[terms[0]] {
				continue
			}
			seen[terms[0]] = true
			if usedByAll(advs, terms[0]) {
				out = append(out, w)
			}
		}
	}
	return out
}

// usedByAll reports whether every advisor's guide has a rule with term.
func usedByAll(advs []*core.Advisor, term string) bool {
	for _, a := range advs {
		found := false
		for _, r := range a.Rules() {
			if found = slices.Contains(nlp.QueryTerms(r.Text), term); found {
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// variant is a suffix unique to i in words the guide uses: i's four digits
// in base len(words)/4, the j-th digit spelled by a word of the j-th
// quarter. A number or a made-up word would not do: Stage II drops it, and
// so does the cache key, so every variant would hit.
func variant(b *testing.B, words []string, i int) string {
	base := len(words) / 4
	if base < 2 || i >= base*base*base*base {
		b.Fatalf("%d guide words cannot spell variant %d", len(words), i)
	}
	parts := make([]string, 4)
	for j := range parts {
		parts[j] = words[j*base+i%base]
		i /= base
	}
	return strings.Join(parts, " ")
}

// allMisses fails a cold benchmark in which any lookup hit the cache.
func allMisses(b *testing.B, svc *service.Service) {
	if st := svc.Stats(); st.CacheHits != 0 {
		b.Fatalf("%d cache hits and %d misses in a cold benchmark", st.CacheHits, st.CacheMisses)
	}
}

// serveQuery answers q through the service's HTTP handler, body writer
// included, into a response recorder.
func serveQuery(b *testing.B, svc *service.Service, q string) {
	rec := httptest.NewRecorder()
	svc.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/cuda/query?q="+url.QueryEscape(q), nil))
	if rec.Code != http.StatusOK {
		b.Fatalf("query %q: %d %s", q, rec.Code, rec.Body)
	}
}

// BenchmarkServiceQuery contrasts a cache miss (every query unique, full
// Stage-II retrieval) with a cache hit (same query repeated); the warm path
// should be >= 10x cheaper — the whole point of the serving layer. The
// -http cases take the same two paths through ServeHTTP, so they also
// count routing and writing the JSON body, which CachedQuery never reaches;
// report-http posts a warm synthesized NVVP report, one cached lookup per
// issue, so it counts the report envelope. report-snapshots posts a fresh
// metrics snapshot each iteration, its percentages moved: issue queries
// that differ only in measured values, which the cache answers once.
func BenchmarkServiceQuery(b *testing.B) {
	_, adv := setup(b)
	words := guideWords(adv)
	b.Run("cold", func(b *testing.B) {
		svc := newBenchService(b)
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := "reduce instruction and memory latency " + variant(b, words, i)
			if _, _, err := svc.CachedQuery(ctx, "cuda", q); err != nil {
				b.Fatal(err)
			}
		}
		allMisses(b, svc)
	})
	b.Run("warm", func(b *testing.B) {
		svc := newBenchService(b)
		ctx := context.Background()
		const q = "reduce instruction and memory latency"
		if _, _, err := svc.CachedQuery(ctx, "cuda", q); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, hit, err := svc.CachedQuery(ctx, "cuda", q); err != nil || !hit {
				b.Fatalf("hit=%v err=%v", hit, err)
			}
		}
	})
	b.Run("cold-http", func(b *testing.B) {
		svc := newBenchService(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serveQuery(b, svc, "reduce instruction and memory latency "+variant(b, words, i))
		}
		allMisses(b, svc)
	})
	b.Run("warm-http", func(b *testing.B) {
		svc := newBenchService(b)
		const q = "reduce instruction and memory latency"
		serveQuery(b, svc, q)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serveQuery(b, svc, q)
		}
	})
	b.Run("report-http", func(b *testing.B) {
		svc := newBenchService(b)
		text, err := nvvp.Synthesize("norm")
		if err != nil {
			b.Fatal(err)
		}
		serveReport := func() {
			rec := httptest.NewRecorder()
			svc.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/cuda/report", strings.NewReader(text)))
			if rec.Code != http.StatusOK {
				b.Fatalf("report: %d %s", rec.Code, rec.Body)
			}
		}
		serveReport()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serveReport()
		}
	})
	b.Run("report-snapshots", func(b *testing.B) {
		svc := newBenchService(b)
		bodies := make([]string, b.N)
		for i := range bodies {
			// every rule fires; each percentage moves with i
			p := float64(i%50) / 100
			m := nvvp.Metrics{
				Program:                 "snap",
				WarpExecutionEfficiency: 0.2 + p,
				Occupancy:               p,
				GlobalLoadEfficiency:    0.05 + p,
				BranchDivergence:        0.3 + p,
				DramUtilization:         p,
				IssueSlotUtilization:    0.05 + p,
				LowThroughputInstFrac:   0.4 + p,
				TransferComputeRatio:    1 + float64(i)/100,
			}
			body, err := json.Marshal(m)
			if err != nil {
				b.Fatal(err)
			}
			bodies[i] = string(body)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for _, body := range bodies {
			rec := httptest.NewRecorder()
			svc.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/cuda/report", strings.NewReader(body)))
			if rec.Code != http.StatusOK {
				b.Fatalf("report: %d %s", rec.Code, rec.Body)
			}
		}
	})
	// the warm path with every request's span tree recorded (sampling 1.0)
	// — the worst-case tracing cost, for the EXPERIMENTS.md overhead table
	b.Run("warm-traced", func(b *testing.B) {
		svc := newBenchService(b)
		tracer := obs.NewTracer(1.0, obs.NewTraceStore(obs.DefaultTraceCapacity))
		const q = "reduce instruction and memory latency"
		if _, _, err := svc.CachedQuery(context.Background(), "cuda", q); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// the envelope's per-request work: a trace ID, a sampling
			// decision, and a root span the context carries
			id := obs.NewTraceID()
			if !tracer.Sample() {
				b.Fatal("rate-1 tracer did not sample")
			}
			root := tracer.Root(id, "bench.query")
			ctx := obs.ContextWithSpan(context.Background(), root)
			if _, hit, err := svc.CachedQuery(ctx, "cuda", q); err != nil || !hit {
				b.Fatalf("hit=%v err=%v", hit, err)
			}
			root.Finish()
		}
	})
}

// BenchmarkBatchRetrieval contrasts the two ways a client gets N answers
// out of the service: N sequential /v1/{advisor}/query round trips, each
// paying HTTP dispatch, admission, tracing, and a JSON response of its own,
// versus one POST /v1/batch that amortizes all of that across a worker
// pool. Every iteration uses fresh query texts, told apart by words of the
// guide, so both paths stay on the cache-miss path being measured.
func BenchmarkBatchRetrieval(b *testing.B) {
	_, adv := setup(b)
	words := guideWords(adv)
	for _, n := range []int{8, 32} {
		b.Run(fmt.Sprintf("sequential-%d", n), func(b *testing.B) {
			svc := newBenchService(b)
			ts := httptest.NewServer(svc)
			defer ts.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < n; j++ {
					q := url.QueryEscape("memory latency seq " + variant(b, words, i*n+j))
					resp, err := http.Get(ts.URL + "/v1/cuda/query?q=" + q)
					if err != nil {
						b.Fatal(err)
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						b.Fatalf("status %d", resp.StatusCode)
					}
				}
			}
			allMisses(b, svc)
		})
		b.Run(fmt.Sprintf("batch-%d", n), func(b *testing.B) {
			svc := newBenchService(b)
			ts := httptest.NewServer(svc)
			defer ts.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var sb strings.Builder
				sb.WriteString(`{"queries":[`)
				for j := 0; j < n; j++ {
					if j > 0 {
						sb.WriteByte(',')
					}
					fmt.Fprintf(&sb, `{"advisor":"cuda","query":"memory latency batch %s"}`, variant(b, words, i*n+j))
				}
				sb.WriteString(`]}`)
				resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(sb.String()))
				if err != nil {
					b.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("status %d", resp.StatusCode)
				}
			}
			allMisses(b, svc)
		})
	}
}

// BenchmarkFederatedAsk measures one cross-advisor fan-out (three advisors,
// cold then warm) — the /v1/ask hot path. Cold asks are told apart by words
// all three guides use, so every leg misses.
func BenchmarkFederatedAsk(b *testing.B) {
	_, adv := setup(b)
	reg := service.NewRegistry()
	reg.Add("cuda", adv)
	advs := []*core.Advisor{adv}
	for i, r := range []corpus.Register{corpus.OpenCL, corpus.XeonPhi} {
		g := corpus.GenerateSized(r, 300, 0.2, int64(23+i))
		a := core.New().BuildFromSentences(g.Doc, g.Sentences)
		reg.Add([]string{"opencl", "xeon"}[i], a)
		advs = append(advs, a)
	}
	words := guideWords(advs...)
	svc := service.New(reg, service.Options{CacheSize: 8192, Timeout: 30 * time.Second, Metrics: obs.NewRegistry()})
	ctx := context.Background()
	asked := 0 // cold asks so far: the cold runs share the service's cache
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := "overlap transfers with execution " + variant(b, words, asked)
			asked++
			if ans, errs, err := svc.Ask(ctx, q, 3); err != nil || len(errs) != 0 {
				b.Fatalf("%v %v (%d answers)", err, errs, len(ans))
			}
		}
		allMisses(b, svc)
	})
	b.Run("warm", func(b *testing.B) {
		const q = "overlap transfers with execution"
		svc.Ask(ctx, q, 3)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, errs, err := svc.Ask(ctx, q, 3); err != nil || len(errs) != 0 {
				b.Fatal(err, errs)
			}
		}
	})
}

// --- maintenance workflows ---------------------------------------------------

func BenchmarkDiffRules(b *testing.B) {
	g1 := corpus.GenerateSized(corpus.CUDA, 400, 0.2, 71)
	g2 := corpus.GenerateSized(corpus.CUDA, 400, 0.2, 72)
	fw := core.New()
	a1 := fw.BuildFromSentences(g1.Doc, g1.Sentences)
	a2 := fw.BuildFromSentences(g2.Doc, g2.Sentences)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.DiffRules(a1, a2)
	}
}

// --- build pipeline (trajectory benchmark) ---------------------------------

// BenchmarkBuildAdvisor150 is the fixed-size build benchmark tracked across
// PRs: full advisor synthesis (Stage I + index) over a 150-sentence guide.
func BenchmarkBuildAdvisor150(b *testing.B) {
	g := corpus.GenerateSized(corpus.CUDA, 150, 0.2, 17)
	fw := core.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fw.BuildFromSentences(g.Doc, g.Sentences)
	}
}

// --- Stage-II retrieval (trajectory benchmark) -----------------------------

// retrievalShape is one query shape of BenchmarkServedRetrieval: a guide and
// the pre-normalized queries asked of it.
type retrievalShape struct {
	name    string
	guide   *corpus.Guide
	queries [][]string
}

// windows draws n queries of 3-8 consecutive words from the guide's
// sentences, seeded.
func windows(g *corpus.Guide, n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	texts := g.Texts()
	out := make([]string, n)
	for i := range out {
		words := strings.Fields(texts[rng.Intn(len(texts))])
		k := min(3+rng.Intn(6), len(words))
		start := rng.Intn(len(words) - k + 1)
		out[i] = strings.Join(words[start:start+k], " ")
	}
	return out
}

// issueQueries are the issue queries of every synthesized NVVP report: the
// long queries the report endpoint asks.
func issueQueries(b *testing.B) []string {
	var out []string
	for _, program := range nvvp.Programs() {
		text, err := nvvp.Synthesize(program)
		if err != nil {
			b.Fatal(err)
		}
		r, err := nvvp.Parse(text)
		if err != nil {
			b.Fatal(err)
		}
		for _, issue := range r.Issues() {
			out = append(out, issue.Query())
		}
	}
	return out
}

// queryTerms normalizes each query as the serving layer does before its
// cache.
func queryTerms(queries []string) [][]string {
	out := make([][]string, len(queries))
	for i, q := range queries {
		out[i] = nlp.QueryTerms(q)
	}
	return out
}

// termsSink keeps BenchmarkQueryTerms' terms live.
var termsSink []string

// BenchmarkQueryTerms times query normalization (tracked across PRs):
// nlp.QueryTerms, which every query and every report issue pays before the
// cache, on NVVP report issues (about 30 terms each) and on the hot-query
// shape, short windows of the paper-size CUDA guide. The stem memo is warm
// after the first pass over the queries, as in a serving process.
func BenchmarkQueryTerms(b *testing.B) {
	paper := corpus.Generate(corpus.CUDA, experiments.Seed)
	for _, sh := range []struct {
		name    string
		queries []string
	}{
		{"report-issue", issueQueries(b)},
		{"hot-query", windows(paper, 1000, 1)},
	} {
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				termsSink = nlp.QueryTerms(sh.queries[i%len(sh.queries)])
			}
		})
	}
}

// servedSink keeps BenchmarkServedRetrieval's answers live.
var servedSink []core.Answer

// postingsScored is the engine's postings-walked counter, read around each
// BenchmarkServedRetrieval run.
var postingsScored = obs.Default().Counter("vsm_postings_scored_total")

// BenchmarkServedRetrieval times Stage-II retrieval the way every endpoint
// asks for it (tracked across PRs): Advisor.Retrieve at the served
// threshold, returning every match, over pre-normalized terms. Three query
// shapes — short windows on the paper-size CUDA guide (hot), short windows
// on a 10,000-sentence guide (cold), and NVVP issue queries on the
// paper-size guide (report). postings/op is the number of postings the
// engine walked per query. The sub-benchmarks keep their "/vsm" suffix so
// results compare by name with earlier runs.
func BenchmarkServedRetrieval(b *testing.B) {
	paper := corpus.Generate(corpus.CUDA, experiments.Seed)
	big := corpus.GenerateSized(corpus.CUDA, 10000, 0.15, 1)
	shapes := []retrievalShape{
		{"hot", paper, queryTerms(windows(paper, 1000, 1))},
		{"cold", big, queryTerms(windows(big, 1000, 2))},
		{"report", paper, queryTerms(issueQueries(b))},
	}
	ctx := context.Background()
	for _, sh := range shapes {
		adv := core.New().BuildFromSentences(sh.guide.Doc, sh.guide.Sentences)
		b.Run(fmt.Sprintf("shape=%s/vsm", sh.name), func(b *testing.B) {
			b.ReportAllocs()
			walked := postingsScored.Value()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				servedSink = adv.Retrieve(ctx, sh.queries[i%len(sh.queries)], adv.Threshold())
			}
			b.ReportMetric(float64(postingsScored.Value()-walked)/float64(b.N), "postings/op")
		})
	}
}

// --- document-size scaling -------------------------------------------------

func benchScaling(b *testing.B, n int) {
	g := corpus.GenerateSized(corpus.CUDA, n, 0.2, 13)
	fw := core.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fw.BuildFromSentences(g.Doc, g.Sentences)
	}
}

func BenchmarkScaling_200Sentences(b *testing.B)  { benchScaling(b, 200) }
func BenchmarkScaling_800Sentences(b *testing.B)  { benchScaling(b, 800) }
func BenchmarkScaling_2000Sentences(b *testing.B) { benchScaling(b, 2000) }
