package core

import (
	"context"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/corpus"
	"repro/internal/htmldoc"
	"repro/internal/nlp"
	"repro/internal/nvvp"
	"repro/internal/selectors"
	"repro/internal/vsm"
)

const miniGuide = `<html><head><title>Mini Guide</title></head><body>
<h1>1. Architecture</h1>
<p>Each multiprocessor contains eight cores. The warp size is thirty-two threads.
Shared memory is divided into banks.</p>
<h1>2. Performance</h1>
<h2>2.1. Memory</h2>
<p>Use shared memory to reduce global memory traffic. Avoid bank conflicts in
shared memory. Each bank serves one request per cycle.</p>
<h2>2.2. Control Flow</h2>
<p>To obtain best performance, the controlling condition should be written so as
to minimize the number of divergent warps. Any flow control instruction can
impact the effective instruction throughput.</p>
</body></html>`

func buildMini(t *testing.T) *Advisor {
	t.Helper()
	return New().BuildFromHTML(miniGuide)
}

// retrieve answers raw query text through Retrieve at the advisor's
// threshold.
func retrieve(a *Advisor, q string) []Answer {
	return a.Retrieve(context.Background(), nlp.QueryTerms(q), a.Threshold())
}

// sameAnswers demands bit-identical retrieval: same sentences in the same
// order with Float64bits-equal scores.
func sameAnswers(t *testing.T, label string, got, want []Answer) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d vs %d answers", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Sentence.Index != want[i].Sentence.Index ||
			math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: answer %d: (%d, %x) vs (%d, %x)", label, i,
				got[i].Sentence.Index, got[i].Score, want[i].Sentence.Index, want[i].Score)
		}
	}
}

// TestRetrieve pins the one query path: Query is Retrieve at Threshold(),
// which is the framework's threshold, and a lower threshold only adds
// answers. The deprecated names still answer the same: WithShards changes
// nothing, QueryTermsBackendCtx is Retrieve for "" and "vsm", and any
// other backend name is vsm.ErrUnknownBackend.
func TestRetrieve(t *testing.T) {
	g := corpus.GenerateSized(corpus.CUDA, 200, 0.25, 31)
	adv := New().BuildFromSentences(g.Doc, g.Sentences)
	const q = "reduce instruction and memory latency"
	full := retrieve(adv, q)
	if len(full) == 0 {
		t.Fatalf("no answers for %q", q)
	}
	sameAnswers(t, "Query", adv.Query(q), full)
	if adv.Threshold() != vsm.DefaultThreshold {
		t.Fatalf("Threshold = %v, want %v", adv.Threshold(), vsm.DefaultThreshold)
	}
	if th := New(WithThreshold(0.3)).BuildFromSentences(g.Doc, g.Sentences).Threshold(); th != 0.3 {
		t.Fatalf("WithThreshold(0.3): Threshold = %v", th)
	}
	if all := adv.Retrieve(context.Background(), nlp.QueryTerms(q), 0.01); len(all) < len(full) {
		t.Fatalf("threshold 0.01: %d answers, fewer than %d at the default", len(all), len(full))
	}
	sharded := New(WithShards(4)).BuildFromSentences(g.Doc, g.Sentences)
	for _, backend := range []string{"", "vsm"} {
		got, err := sharded.QueryTermsBackendCtx(context.Background(), backend, nlp.QueryTerms(q))
		if err != nil {
			t.Fatal(err)
		}
		sameAnswers(t, "QueryTermsBackendCtx "+backend, got, full)
	}
	for _, backend := range []string{"bm25", "tfidf"} {
		if _, err := adv.QueryTermsBackendCtx(context.Background(), backend, nlp.QueryTerms(q)); !errors.Is(err, vsm.ErrUnknownBackend) {
			t.Fatalf("QueryTermsBackendCtx(%q): %v, want vsm.ErrUnknownBackend", backend, err)
		}
	}
}

// TestAnswersPointAtTheirRules pins the answer layout: an Answer is a
// pointer and a score, 16 bytes, and every answer Retrieve returns points
// at its advisor's own rule, not at a copy.
func TestAnswersPointAtTheirRules(t *testing.T) {
	if size := unsafe.Sizeof(Answer{}); size != 16 {
		t.Fatalf("unsafe.Sizeof(Answer{}) = %d, want 16", size)
	}
	g := corpus.GenerateSized(corpus.CUDA, 200, 0.25, 31)
	adv := New().BuildFromSentences(g.Doc, g.Sentences)
	rules := adv.Rules()
	answers := retrieve(adv, "reduce instruction and memory latency")
	if len(answers) < 2 {
		t.Fatalf("%d answers, want at least 2", len(answers))
	}
	for i, a := range answers {
		k, ok := slices.BinarySearchFunc(rules, a.Sentence.Index, func(r AdvisingSentence, idx int) int { return r.Index - idx })
		if !ok || a.Sentence != &rules[k] {
			t.Fatalf("answer %d (sentence %d) does not point at its advisor's rule", i, a.Sentence.Index)
		}
	}
}

func TestStageIRecognition(t *testing.T) {
	a := buildMini(t)
	rules := a.Rules()
	if len(rules) < 3 {
		t.Fatalf("only %d advising sentences: %+v", len(rules), rules)
	}
	var texts []string
	for _, r := range rules {
		texts = append(texts, r.Text)
	}
	joined := strings.Join(texts, "|")
	for _, want := range []string{"Use shared memory", "Avoid bank conflicts", "divergent warps"} {
		if !strings.Contains(joined, want) {
			t.Errorf("advising list missing %q; got %v", want, texts)
		}
	}
	for _, miss := range []string{"warp size is thirty-two", "Each bank serves"} {
		if strings.Contains(joined, miss) {
			t.Errorf("non-advising sentence selected: %q", miss)
		}
	}
}

func TestRulesCarrySectionsAndSelectors(t *testing.T) {
	a := buildMini(t)
	for _, r := range a.Rules() {
		if r.Section == "" {
			t.Errorf("rule %q has no section", r.Text)
		}
		if r.Selector == selectors.None {
			t.Errorf("rule %q has no selector", r.Text)
		}
	}
}

func TestQueryRetrievesRelevantAdvice(t *testing.T) {
	a := buildMini(t)
	answers := a.Query("how to avoid shared memory bank conflicts")
	if len(answers) == 0 {
		t.Fatal("no answers")
	}
	if !strings.Contains(answers[0].Sentence.Text, "bank conflicts") {
		t.Errorf("top answer = %q", answers[0].Sentence.Text)
	}
	for i := 1; i < len(answers); i++ {
		if answers[i].Score > answers[i-1].Score {
			t.Error("answers not sorted by score")
		}
	}
}

func TestQueryNoRelevantSentences(t *testing.T) {
	a := buildMini(t)
	if answers := a.Query("zebra migration patterns"); len(answers) != 0 {
		t.Errorf("expected no answers, got %+v", answers)
	}
}

func TestQueryOnlyReturnsAdvisingSentences(t *testing.T) {
	a := buildMini(t)
	// "warp size" matches an explanatory sentence strongly; Stage II must
	// not return it because Stage I filtered it.
	for _, ans := range a.Query("warp size threads") {
		if !a.IsAdvising(ans.Sentence.Index) {
			t.Errorf("non-advising sentence returned: %q", ans.Sentence.Text)
		}
	}
}

func TestCompressionRatio(t *testing.T) {
	a := buildMini(t)
	r := a.CompressionRatio()
	if r <= 1 {
		t.Errorf("ratio = %f, want > 1", r)
	}
	if a.SentenceCount() <= len(a.Rules()) {
		t.Error("advising should be a strict subset")
	}
}

func TestAnswerReport(t *testing.T) {
	g := corpus.Generate(corpus.CUDA, 1)
	a := New().BuildFromSentences(g.Doc, g.Sentences)
	text, err := nvvp.Synthesize("norm")
	if err != nil {
		t.Fatal(err)
	}
	report, err := nvvp.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	answers := a.AnswerReport(report)
	if len(answers) != 2 {
		t.Fatalf("%d report answers, want 2", len(answers))
	}
	for _, ra := range answers {
		if len(ra.Answers) == 0 {
			t.Errorf("issue %q got no recommendations", ra.Issue.Title)
		}
		// the paper reports 5-25 suggestions per query typically
		if len(ra.Answers) > 60 {
			t.Errorf("issue %q got %d recommendations; threshold too loose", ra.Issue.Title, len(ra.Answers))
		}
	}
}

func TestReportAnswersContainDesignatedAdvice(t *testing.T) {
	g := corpus.Generate(corpus.CUDA, 1)
	a := New().BuildFromSentences(g.Doc, g.Sentences)
	text, _ := nvvp.Synthesize("norm")
	report, _ := nvvp.Parse(text)
	answers := a.AnswerReport(report)
	// §4.1: the register-usage issue should surface the maxrregcount advice,
	// the divergence issue the thread-ID/divergent-warps advice.
	var regText, divText string
	for _, ra := range answers {
		var b strings.Builder
		for _, ans := range ra.Answers {
			b.WriteString(ans.Sentence.Text)
			b.WriteByte('|')
		}
		if strings.Contains(ra.Issue.Title, "Register") {
			regText = b.String()
		} else {
			divText = b.String()
		}
	}
	if !strings.Contains(regText, "maxrregcount") {
		t.Error("register-usage issue did not retrieve the maxrregcount advice")
	}
	if !strings.Contains(divText, "divergent warps") {
		t.Error("divergence issue did not retrieve the divergent-warps advice")
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	g := corpus.GenerateSized(corpus.CUDA, 150, 0.2, 9)
	serial := New(WithParallelism(1)).BuildFromSentences(g.Doc, g.Sentences)
	parallel := New(WithParallelism(8)).BuildFromSentences(g.Doc, g.Sentences)
	sr, pr := serial.Rules(), parallel.Rules()
	if len(sr) != len(pr) {
		t.Fatalf("serial %d rules, parallel %d", len(sr), len(pr))
	}
	for i := range sr {
		if sr[i] != pr[i] {
			t.Fatalf("rule %d differs: %+v vs %+v", i, sr[i], pr[i])
		}
	}
}

func TestWithThreshold(t *testing.T) {
	g := corpus.GenerateSized(corpus.CUDA, 150, 0.2, 9)
	loose := New(WithThreshold(0.05)).BuildFromSentences(g.Doc, g.Sentences)
	tight := New(WithThreshold(0.5)).BuildFromSentences(g.Doc, g.Sentences)
	q := "minimize divergent warps in control flow"
	if len(loose.Query(q)) < len(tight.Query(q)) {
		t.Error("lower threshold must not return fewer answers")
	}
}

func TestWithConfig(t *testing.T) {
	cfg := selectors.DefaultConfig()
	cfg.FlaggingWords = append(cfg.FlaggingWords, "zgyx marker")
	f := New(WithConfig(cfg))
	doc := htmldoc.Parse("<p>The zgyx marker appears in this sentence. Plain fact here.</p>")
	a := f.BuildFromDocument(doc)
	if len(a.Rules()) != 1 {
		t.Errorf("custom keyword not honored: %+v", a.Rules())
	}
	if got := f.Config().FlaggingWords; len(got) != len(cfg.FlaggingWords) {
		t.Error("config not retained")
	}
}

func TestContextOf(t *testing.T) {
	a := buildMini(t)
	answers := a.Query("how to avoid shared memory bank conflicts")
	if len(answers) == 0 {
		t.Fatal("no answers")
	}
	ctx := a.ContextOf(answers[0])
	for _, c := range ctx {
		if c.Index == answers[0].Sentence.Index {
			t.Error("context includes the answer itself")
		}
		if c.Section != answers[0].Sentence.Section {
			t.Error("context crosses sections")
		}
	}
}

func TestBuildStats(t *testing.T) {
	a := buildMini(t)
	st := a.BuildStats()
	if st.Sentences != a.SentenceCount() {
		t.Errorf("stats sentences %d", st.Sentences)
	}
	if st.Advising != len(a.Rules()) {
		t.Errorf("stats advising %d vs %d rules", st.Advising, len(a.Rules()))
	}
	total := 0
	for sel, n := range st.BySelector {
		if sel == selectors.None {
			t.Error("None selector counted")
		}
		total += n
	}
	if total != st.Advising {
		t.Errorf("selector counts sum %d != advising %d", total, st.Advising)
	}
	if st.StageI <= 0 || st.Indexing < 0 {
		t.Errorf("timings: %+v", st)
	}
	// defensive copy: mutating the returned map must not affect the advisor
	st.BySelector[selectors.Keyword] = 9999
	if a.BuildStats().BySelector[selectors.Keyword] == 9999 {
		t.Error("BuildStats map not copied")
	}
}

func TestEmptyDocument(t *testing.T) {
	a := New().BuildFromHTML("")
	if a.SentenceCount() != 0 || len(a.Rules()) != 0 {
		t.Error("empty document should produce an empty advisor")
	}
	if got := a.Query("anything"); len(got) != 0 {
		t.Error("empty advisor answered")
	}
	if a.CompressionRatio() != 0 {
		t.Error("empty ratio")
	}
	if a.IsAdvising(0) || a.IsAdvising(-1) {
		t.Error("IsAdvising out of range")
	}
}

func BenchmarkBuildAdvisor150(b *testing.B) {
	g := corpus.GenerateSized(corpus.CUDA, 150, 0.2, 9)
	f := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.BuildFromSentences(g.Doc, g.Sentences)
	}
}

func BenchmarkAdvisorQuery(b *testing.B) {
	g := corpus.GenerateSized(corpus.CUDA, 300, 0.2, 9)
	a := New().BuildFromSentences(g.Doc, g.Sentences)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Query("minimize divergent warps in control flow")
	}
}
