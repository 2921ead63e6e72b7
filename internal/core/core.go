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
// Building is one pass per sentence: a worker annotates the sentence once
// (tokenize, POS-tag, parse, stem — see internal/nlp) into the one scratch
// it reuses for every sentence it takes, the selectors classify that
// annotation, and the worker keeps the verdict and the sentence's retrieval
// terms and lets the next sentence overwrite the rest. The TF-IDF index is
// built from those terms, so no layer re-tokenizes, re-stems or re-parses
// another layer's work, and no parse tree outlives its sentence: an advisor
// holds each sentence's terms and verdict, which is all Stage II, Save and
// the next update read.
package core

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
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

// Build observability: per-stage latency of every cold build, reported
// into the default metrics registry (surfaced on /metricz as core_*). The
// histograms mirror BuildStats, but accumulate across every build the
// process runs; each one's count is the number of cold builds.
var (
	buildAnnotate = obs.Default().Histogram("core_build_annotate_micros")
	buildClassify = obs.Default().Histogram("core_build_classify_micros")
	buildIndex    = obs.Default().Histogram("core_build_index_micros")
)

// Framework is the advisor generator. The zero value is not usable; call
// New.
type Framework struct {
	cfg         selectors.Config
	recognizer  *selectors.Recognizer
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

// WithParallelism fixes the Stage-I worker count (<=0 means GOMAXPROCS,
// 1 forces serial).
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
		cfg:       selectors.DefaultConfig(),
		threshold: vsm.DefaultThreshold,
	}
	for _, o := range opts {
		o(f)
	}
	if f.parallelism <= 0 {
		f.parallelism = runtime.GOMAXPROCS(0)
	}
	f.recognizer = selectors.New(f.cfg)
	return f
}

// Config returns the framework's keyword configuration.
func (f *Framework) Config() selectors.Config { return f.cfg }

// Threshold returns the framework's similarity threshold.
func (f *Framework) Threshold() float64 { return f.threshold }

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
// per-stage timings. Stage I is one pass that annotates and classifies each
// sentence in turn; Annotate and Classify split its wall time in proportion
// to the time its workers spent in each, so Annotate + Classify == StageI.
type BuildStats struct {
	Sentences  int
	Advising   int
	Reused     int // sentences whose terms and verdict carried over (incremental builds)
	BySelector map[selectors.SelectorID]int
	Annotate   time.Duration // annotation's share of StageI (tokenize, tag, parse, stem, terms)
	Classify   time.Duration // the selectors' share of StageI
	StageI     time.Duration // wall time of the Stage-I pass (Annotate + Classify)
	Indexing   time.Duration // TF-IDF index construction time
}

// Advisor is a synthesized advising tool for one document.
type Advisor struct {
	name      string // registry name ("cuda"); set via SetName
	builtAt   time.Time
	doc       *htmldoc.Document
	sentences []htmldoc.Sentence // the advisor's own copy, so a caller's later edits cannot reach it
	terms     [][]string         // per-sentence retrieval terms, read by Save and the next update
	advising  []AdvisingSentence
	isAdv     []bool     // per sentence index; the index's served mask
	rulePos   []int32    // per sentence index: its rule's position in advising, where isAdv
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
// The build runs Stage I as one parallel pass — each sentence annotated,
// classified and reduced to its retrieval terms — then builds the TF-IDF
// index from those terms. The index is bit-exact with one built from the
// raw texts (the annotation terms equal textproc.NormalizeTerms), but
// tokenization and stemming run once per sentence instead of twice.
//
// A cold build is the update from nothing: UpdateFromSentencesCtx with a
// nil predecessor, which marks every sentence Added and cannot fail.
func (f *Framework) BuildFromSentences(doc *htmldoc.Document, sents []htmldoc.Sentence) *Advisor {
	a, _ := f.UpdateFromSentencesCtx(context.Background(), nil, doc, sents)
	return a
}

// keepAdvising records Stage I's verdicts, aligned with a.sentences: the
// advising mask (the index's served mask), the rules in document order with
// each one's position, and the per-selector counts.
func (a *Advisor) keepAdvising(results []selectors.Result) {
	a.isAdv = make([]bool, len(results))
	a.rulePos = make([]int32, len(results))
	for i, res := range results {
		if !res.Advising {
			continue
		}
		a.isAdv[i] = true
		a.rulePos[i] = int32(len(a.advising))
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

// Rules returns the Stage-I output: the concise list of advising sentences
// extracted from the document (what the tool's front page shows).
func (a *Advisor) Rules() []AdvisingSentence { return a.advising }

// Diff compares a new version of the advisor's document with the one it
// was built from, by sentence identity (see internal/doc): both sides' keys
// are derived from content on every call, the old side from the advisor's
// own document and sentences.
func (a *Advisor) Diff(d *htmldoc.Document, sents []htmldoc.Sentence) doc.Diffs {
	return doc.Diff(htmldoc.Keys(a.doc, a.sentences), htmldoc.Keys(d, sents))
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

// Answer is one Stage-II recommendation. Sentence points at the scoring
// advisor's own rule, shared with the advisor and with every cached answer
// list that holds it, so it is read-only: no build writes an advisor's rules
// after publishing them, and an answer keeps its advisor's text after a
// reload replaces that advisor.
type Answer struct {
	Sentence *AdvisingSentence
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
	return a.Retrieve(context.Background(), nlp.QueryTerms(q), a.threshold)
}

// Retrieve is the one Stage-II query path Query and the serving layer
// take: it scores pre-normalized query terms against the advising
// sentences, the only ones the index serves, and returns those at or above
// threshold best first (score descending, ties by document order). When
// ctx carries a sampled span, scoring is recorded beneath it (see
// vsm.Index.Query).
func (a *Advisor) Retrieve(ctx context.Context, terms []string, threshold float64) []Answer {
	matches := a.index.Query(ctx, terms, threshold)
	if len(matches) == 0 {
		return nil
	}
	// the index serves advising sentences only, so every match has a rule
	out := make([]Answer, len(matches))
	for i, m := range matches {
		out[i] = Answer{Sentence: &a.advising[a.rulePos[m.Index]], Score: m.Score}
	}
	return out
}

// AppendQueryKey appends to b what Retrieve scores for the query terms on
// this advisor's index (see vsm.Index.AppendQueryKey): equal bytes mean
// Float64bits-equal answers from this advisor, and no other advisor, a
// rebuild of this one included, appends the same bytes.
func (a *Advisor) AppendQueryKey(b []byte, terms []string) []byte {
	return a.index.AppendQueryKey(b, terms)
}

// Threshold is the similarity threshold the advisor answers at: the
// framework's, 0.15 by default (§3.2).
func (a *Advisor) Threshold() float64 { return a.threshold }

// QueryTermsBackendCtx is Retrieve at the advisor's threshold, for a
// backend the request named: "" and "vsm" answer, and any other name is
// vsm.ErrUnknownBackend.
//
// Deprecated: call Retrieve with Threshold(). It stays only because the
// benchmark module still calls it.
func (a *Advisor) QueryTermsBackendCtx(ctx context.Context, backend string, terms []string) ([]Answer, error) {
	if !vsm.ValidBackend(backend) {
		return nil, fmt.Errorf("%w: %q", vsm.ErrUnknownBackend, backend)
	}
	return a.Retrieve(ctx, terms, a.threshold), nil
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
