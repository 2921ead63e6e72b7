// Package core implements the Egeria framework itself: the generator of HPC
// advising tools. A Framework holds the configuration (keyword sets,
// similarity threshold, parallelism); feeding it a document synthesizes an
// Advisor — the two-stage pipeline of the paper:
//
//	Stage I  (advising sentence recognition): the five multi-layered
//	         selectors classify every sentence of the document.
//	Stage II (knowledge recommendation): a TF-IDF vector space over the
//	         document retrieves, from the Stage-I output, the advising
//	         sentences relevant to a query (natural-language text or an
//	         NVVP profiler report), using cosine similarity with the
//	         paper's 0.15 recommendation threshold.
//
// Stage I is embarrassingly parallel over sentences and fans out across
// GOMAXPROCS goroutines by default.
//
// Building is a staged annotate-once pipeline: every sentence is annotated
// exactly once (tokenize, POS-tag, parse, stem — see internal/nlp), the
// selectors classify the shared annotations, and the TF-IDF index is built
// from the annotations' term lists, so no layer re-tokenizes, re-stems or
// re-parses another layer's work.
package core

import (
	"context"
	"math"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/doc"
	"repro/internal/htmldoc"
	"repro/internal/jsonw"
	"repro/internal/nlp"
	"repro/internal/nvvp"
	"repro/internal/obs"
	"repro/internal/selectors"
	"repro/internal/vsm"
)

// Build observability: advisor synthesis volume and per-stage latency,
// reported into the default metrics registry (surfaced on /metricz as
// core_*). The per-stage histograms mirror BuildStats, but accumulate
// across every build the process runs.
var (
	buildsTotal   = obs.Default().Counter("core_builds_total")
	buildAnnotate = obs.Default().Histogram("core_build_annotate_micros")
	buildClassify = obs.Default().Histogram("core_build_classify_micros")
	buildIndex    = obs.Default().Histogram("core_build_index_micros")
)

// Framework is the advisor generator. The zero value is not usable; call
// New.
type Framework struct {
	cfg         selectors.Config
	recognizer  *selectors.Recognizer
	annotator   *nlp.Annotator
	threshold   float64
	parallelism int
}

// Option configures a Framework.
type Option func(*Framework)

// WithConfig replaces the default Table 2 keyword sets.
func WithConfig(cfg selectors.Config) Option {
	return func(f *Framework) { f.cfg = cfg }
}

// WithThreshold replaces the default 0.15 similarity threshold.
func WithThreshold(t float64) Option {
	return func(f *Framework) { f.threshold = t }
}

// WithParallelism fixes the Stage-I worker count (<=1 forces serial).
func WithParallelism(n int) Option {
	return func(f *Framework) { f.parallelism = n }
}

// WithShards does nothing: every advisor has one Stage-II index.
//
// Deprecated: the index has no partitions; drop the option. It stays only
// because the benchmark module still passes it.
func WithShards(int) Option { return func(*Framework) {} }

// New creates a Framework with the paper's defaults.
func New(opts ...Option) *Framework {
	f := &Framework{
		cfg:         selectors.DefaultConfig(),
		threshold:   vsm.DefaultThreshold,
		parallelism: runtime.GOMAXPROCS(0),
	}
	for _, o := range opts {
		o(f)
	}
	f.recognizer = selectors.New(f.cfg)
	f.annotator = nlp.NewAnnotator(nlp.WithParallelism(f.parallelism))
	return f
}

// Config returns the framework's keyword configuration.
func (f *Framework) Config() selectors.Config { return f.cfg }

// Recognizer exposes the compiled Stage-I recognizer (used by the
// experiment harness for per-selector ablations).
func (f *Framework) Recognizer() *selectors.Recognizer { return f.recognizer }

// AdvisingSentence is one Stage-I result.
type AdvisingSentence struct {
	Index    int // sentence index within the source document
	Text     string
	Section  string // section path ("5.4.2. Control Flow Instructions")
	Selector selectors.SelectorID

	// wire is the sentence's /v1 JSON object up to its score, rendered once
	// per advisor when Stage I keeps it or a snapshot loads it (see
	// Answer.AppendJSON). Unexported, so gob snapshots never carry it.
	wire string
}

// appendWire appends the sentence's /v1 object prefix — what encoding/json
// writes for service.Rule, without the closing brace:
// {"index":…,"text":…,"section":…,"selector":… (section omitted when empty).
func (s *AdvisingSentence) appendWire(dst []byte) []byte {
	dst = append(dst, `{"index":`...)
	dst = strconv.AppendInt(dst, int64(s.Index), 10)
	dst = append(dst, `,"text":`...)
	dst = jsonw.AppendString(dst, s.Text)
	if s.Section != "" {
		dst = append(dst, `,"section":`...)
		dst = jsonw.AppendString(dst, s.Section)
	}
	dst = append(dst, `,"selector":`...)
	return jsonw.AppendString(dst, s.Selector.String())
}

// BuildStats describes what the build pipeline did to a document, with
// per-stage timings for the three stages of the annotate-once pipeline.
type BuildStats struct {
	Sentences  int
	Advising   int
	Reused     int // sentences whose annotation+classification carried over (incremental builds)
	BySelector map[selectors.SelectorID]int
	Annotate   time.Duration // annotation time (tokenize, tag, parse, stem)
	Classify   time.Duration // selector time over the shared annotations
	StageI     time.Duration // total recognition time (Annotate + Classify)
	Indexing   time.Duration // TF-IDF index construction time
}

// Advisor is a synthesized advising tool for one document.
type Advisor struct {
	name      string // registry name ("cuda"); set via SetName
	builtAt   time.Time
	doc       *htmldoc.Document
	sentences []htmldoc.Sentence
	ids       []doc.SentenceID  // per-sentence stable identities (aligned with sentences)
	anns      []*nlp.Annotation // per-sentence annotations, retained for incremental rebuilds
	advising  []AdvisingSentence
	isAdv     []bool     // per sentence index; the index's served mask
	index     *vsm.Index // statistics over every sentence, postings for advising ones
	threshold float64
	stats     BuildStats
}

// Name returns the advisor's registry name ("" until SetName).
func (a *Advisor) Name() string { return a.name }

// SetName labels the advisor for serving registries and logs.
func (a *Advisor) SetName(name string) { a.name = name }

// BuiltAt returns when the advisor was synthesized (or loaded).
func (a *Advisor) BuiltAt() time.Time { return a.builtAt }

// Title returns the source document's title ("" when the advisor was built
// from bare sentences).
func (a *Advisor) Title() string {
	if a.doc == nil {
		return ""
	}
	return a.doc.Title
}

// BuildFromHTML synthesizes an advisor from a raw HTML guide.
func (f *Framework) BuildFromHTML(html string) *Advisor {
	doc := htmldoc.Parse(html)
	return f.BuildFromDocument(doc)
}

// BuildFromDocument synthesizes an advisor from a loaded document.
func (f *Framework) BuildFromDocument(doc *htmldoc.Document) *Advisor {
	return f.BuildFromSentences(doc, doc.Sentences())
}

// BuildFromSentences synthesizes an advisor from pre-split sentences (the
// path used by the synthetic corpora, whose ground-truth labels align with
// exactly these sentence boundaries). doc may be nil.
//
// The build is a three-stage annotate-once pipeline: (1) annotate every
// sentence in parallel, (2) classify the shared annotations, (3) build the
// TF-IDF index from the annotations' term lists. The index is bit-exact
// with one built from the raw texts (the annotation terms equal
// textproc.NormalizeTerms), but tokenization and stemming run once per
// sentence instead of twice.
func (f *Framework) BuildFromSentences(doc *htmldoc.Document, sents []htmldoc.Sentence) *Advisor {
	return f.BuildFromSentencesCtx(context.Background(), doc, sents)
}

// BuildFromSentencesCtx is BuildFromSentences under a trace: when ctx
// carries a sampled span, the three pipeline stages are recorded as
// annotate/classify/index child spans of a "core.build" span. The same
// stage timings also feed BuildStats and the core_build_* histograms.
func (f *Framework) BuildFromSentencesCtx(ctx context.Context, doc *htmldoc.Document, sents []htmldoc.Sentence) *Advisor {
	buildSpan := obs.SpanFrom(ctx).StartChild("core.build")
	if buildSpan != nil {
		buildSpan.SetAttrInt("sentences", len(sents))
		ctx = obs.ContextWithSpan(ctx, buildSpan)
		defer buildSpan.Finish()
	}
	sents = htmldoc.StampIDs(doc, sents)
	a := &Advisor{
		doc:       doc,
		sentences: sents,
		ids:       htmldoc.IDsOf(sents),
		isAdv:     make([]bool, len(sents)),
		threshold: f.threshold,
		builtAt:   time.Now(),
		stats: BuildStats{
			Sentences:  len(sents),
			BySelector: map[selectors.SelectorID]int{},
		},
	}
	texts := make([]string, len(sents))
	for i, s := range sents {
		texts[i] = s.Text
	}

	// stage 1: annotate (tokenize, tag, parse, stem) each sentence once
	start := time.Now()
	anns := f.annotator.AnnotateAllCtx(ctx, texts)
	a.anns = anns
	a.stats.Annotate = time.Since(start)
	buildAnnotate.ObserveDuration(a.stats.Annotate)

	// stage 2: classify the shared annotations
	start = time.Now()
	classifySpan := obs.SpanFrom(ctx).StartChild("classify")
	results := f.classifyAnnotated(anns)
	classifySpan.Finish()
	a.stats.Classify = time.Since(start)
	buildClassify.ObserveDuration(a.stats.Classify)
	a.stats.StageI = a.stats.Annotate + a.stats.Classify

	a.keepAdvising(results)

	// stage 3: the TF-IDF statistics cover the whole document (as the
	// artifact describes) so term weights reflect corpus-wide statistics,
	// but only the advising sentences get postings: Stage II retrieves from
	// Stage I's output and never scores the rest. The term lists come from
	// the annotations, so the text is not re-tokenized.
	start = time.Now()
	indexSpan := obs.SpanFrom(ctx).StartChild("index")
	terms := make([][]string, len(anns))
	for i, an := range anns {
		terms[i] = an.Terms()
	}
	a.index = vsm.BuildFromTerms(terms, a.isAdv)
	indexSpan.Finish()
	a.stats.Indexing = time.Since(start)
	buildIndex.ObserveDuration(a.stats.Indexing)
	buildsTotal.Inc()
	if buildSpan != nil {
		buildSpan.SetAttrInt("advising", len(a.advising))
	}
	return a
}

// keepAdvising records Stage I's verdicts, aligned with a.sentences: the
// advising mask (the index's served mask), the rules in document order and
// the per-selector counts.
func (a *Advisor) keepAdvising(results []selectors.Result) {
	for i, res := range results {
		if !res.Advising {
			continue
		}
		a.isAdv[i] = true
		a.stats.BySelector[res.Selector]++
		adv := AdvisingSentence{
			Index:    i,
			Text:     a.sentences[i].Text,
			Section:  a.SectionOf(i),
			Selector: res.Selector,
		}
		adv.wire = string(adv.appendWire(nil))
		a.advising = append(a.advising, adv)
	}
	a.stats.Advising = len(a.advising)
}

// BuildStats returns the Stage-I statistics recorded at build time. A loaded
// advisor (LoadAdvisor) reconstructs counts but not timings.
func (a *Advisor) BuildStats() BuildStats {
	// defensive copy of the map
	out := a.stats
	out.BySelector = make(map[selectors.SelectorID]int, len(a.stats.BySelector))
	for k, v := range a.stats.BySelector {
		out.BySelector[k] = v
	}
	return out
}

// classifyAnnotated runs the selectors over all annotations, parallel
// across workers. Work is distributed by an atomic counter rather than a
// pre-filled channel: claiming an index is one atomic add instead of a
// channel receive, and no O(n) channel fill precedes the fan-out.
func (f *Framework) classifyAnnotated(anns []*nlp.Annotation) []selectors.Result {
	n := len(anns)
	out := make([]selectors.Result, n)
	workers := f.parallelism
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i, an := range anns {
			out[i] = f.recognizer.ClassifyAnnotated(an)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = f.recognizer.ClassifyAnnotated(anns[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// Rules returns the Stage-I output: the concise list of advising sentences
// extracted from the document (what the tool's front page shows).
func (a *Advisor) Rules() []AdvisingSentence { return a.advising }

// SentenceIDs returns the stable identity of every sentence, aligned with
// document order — the left-hand side of doc.Diff when this advisor is the
// previous version of a document.
func (a *Advisor) SentenceIDs() []doc.SentenceID { return a.ids }

// HasIdentity reports whether the advisor retains enough per-sentence state
// to serve as the base of an incremental rebuild: a stamped identity and an
// annotation (at least term-only, see nlp.FromSavedTerms) for every
// sentence. Freshly built advisors always do; advisors loaded from
// pre-identity snapshots without term lists do not, and updates from them
// fall back to a full build.
func (a *Advisor) HasIdentity() bool {
	if len(a.ids) != len(a.sentences) || len(a.anns) != len(a.sentences) {
		return false
	}
	for i := range a.sentences {
		if a.ids[i] == "" || a.anns[i] == nil {
			return false
		}
	}
	return true
}

// SentenceCount returns the document's total sentence count.
func (a *Advisor) SentenceCount() int { return len(a.sentences) }

// IsAdvising reports Stage I's decision for sentence i.
func (a *Advisor) IsAdvising(i int) bool {
	return i >= 0 && i < len(a.isAdv) && a.isAdv[i]
}

// SentenceText returns the text of sentence i ("" when out of range).
func (a *Advisor) SentenceText(i int) string {
	if i < 0 || i >= len(a.sentences) {
		return ""
	}
	return a.sentences[i].Text
}

// SectionOf returns the section path of sentence i ("" when unknown).
func (a *Advisor) SectionOf(i int) string {
	if a.doc == nil || i < 0 || i >= len(a.sentences) {
		return ""
	}
	si := a.sentences[i].Section
	if si < 0 || si >= len(a.doc.Sections) {
		return ""
	}
	return a.doc.Sections[si].Path()
}

// CompressionRatio returns total sentences / advising sentences — the
// "Ratio" column of the paper's Table 7.
func (a *Advisor) CompressionRatio() float64 {
	if len(a.advising) == 0 {
		return 0
	}
	return float64(len(a.sentences)) / float64(len(a.advising))
}

// Answer is one Stage-II recommendation.
type Answer struct {
	Sentence AdvisingSentence
	Score    float64
}

// AppendJSON appends the answer as the /v1 API's answer object, byte for
// byte what encoding/json writes for service.Answer with HTML escaping off.
// The sentence part is the prefix its advisor rendered when it kept the
// rule, so an answer always writes the text of the advisor that scored it;
// a sentence built outside an advisor is rendered here by the same code.
func (a Answer) AppendJSON(dst []byte) []byte {
	if a.Sentence.wire == "" {
		dst = a.Sentence.appendWire(dst)
	}
	dst = append(append(dst, a.Sentence.wire...), `,"score":`...)
	return append(jsonw.AppendFloat(dst, a.Score), '}')
}

// Query answers a natural-language query with the relevant advising
// sentences at the framework's threshold, best first. An empty result
// corresponds to the tool's "No relevant sentences found".
func (a *Advisor) Query(q string) []Answer {
	// the default backend is always known, so no error can come back
	out, _ := a.Retrieve(context.Background(), nlp.QueryTerms(q), a.QueryOpts(""))
	return out
}

// Retrieve is the one Stage-II query path Query and the serving layer
// take: it scores pre-normalized query terms under o against the advising
// sentences, the only ones the index serves, best first (score descending,
// ties by document order). When ctx carries a sampled span, scoring is
// recorded beneath it (see vsm.Index.Query). An unknown o.Backend returns
// vsm.ErrUnknownBackend.
func (a *Advisor) Retrieve(ctx context.Context, terms []string, o vsm.QueryOpts) ([]Answer, error) {
	matches, err := a.index.Query(ctx, terms, o)
	if err != nil || len(matches) == 0 {
		return nil, err
	}
	out := make([]Answer, len(matches))
	for i, m := range matches {
		out[i] = Answer{Sentence: a.advisingAt(m.Index), Score: m.Score}
	}
	return out, nil
}

// QueryOpts returns the options that answer with the named backend at its
// threshold. The empty string and "vsm" run the paper's TF-IDF/cosine model
// at the advisor's threshold. "bm25" scores with Okapi BM25 over the same
// postings and keeps every advising sentence with positive score: BM25
// scores are unbounded, so the paper's 0.15 cosine threshold has no meaning
// there and rank order does the filtering (the smallest positive float
// admits exactly the scores above zero).
func (a *Advisor) QueryOpts(backend string) vsm.QueryOpts {
	if backend == vsm.BackendBM25 {
		return vsm.QueryOpts{Backend: backend, Threshold: math.SmallestNonzeroFloat64}
	}
	return vsm.QueryOpts{Backend: backend, Threshold: a.threshold}
}

// advisingAt returns the advising sentence at a global sentence index (the
// zero value when that sentence is not advising). a.advising is sorted by
// ascending Index, so the lookup is a binary search.
func (a *Advisor) advisingAt(index int) AdvisingSentence {
	i := sort.Search(len(a.advising), func(i int) bool { return a.advising[i].Index >= index })
	if i < len(a.advising) && a.advising[i].Index == index {
		return a.advising[i]
	}
	return AdvisingSentence{}
}

// Backends lists the retrieval backends the advisor can score with: the
// paper's TF-IDF/VSM (default) plus the alternates sharing its index.
func (a *Advisor) Backends() []string { return vsm.Backends() }

// QueryTermsBackendCtx is Retrieve with the named backend's options.
//
// Deprecated: call Retrieve with QueryOpts(backend). It stays only because
// the benchmark module still calls it.
func (a *Advisor) QueryTermsBackendCtx(ctx context.Context, backend string, terms []string) ([]Answer, error) {
	return a.Retrieve(ctx, terms, a.QueryOpts(backend))
}

// ReportAnswer pairs one profiler issue with its recommendations.
type ReportAnswer struct {
	Issue   nvvp.Issue
	Answers []Answer
}

// AnswerReport extracts the performance issues of an NVVP-style report and
// answers each as a query — the report-driven path of the paper's §4.1.
func (a *Advisor) AnswerReport(r *nvvp.Report) []ReportAnswer {
	var out []ReportAnswer
	for _, issue := range r.Issues() {
		out = append(out, ReportAnswer{
			Issue:   issue,
			Answers: a.Query(issue.Query()),
		})
	}
	return out
}

// ContextOf returns the other advising sentences sharing the section of the
// given answer — the tool's "other advising sentences in the same
// subsections" view (Fig. 4). When the answer's section is unknown (an
// advisor built from bare sentences has no section structure), there is no
// meaningful "same section" and nothing is returned — previously every
// other advising sentence matched the empty section and the whole rule list
// came back as context.
func (a *Advisor) ContextOf(ans Answer) []AdvisingSentence {
	if ans.Sentence.Section == "" {
		return nil
	}
	var out []AdvisingSentence
	for _, adv := range a.advising {
		if adv.Section == ans.Sentence.Section && adv.Index != ans.Sentence.Index {
			out = append(out, adv)
		}
	}
	return out
}
