package selectors

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/depparse"
	"repro/internal/nlp"
)

// accepts reports whether the k-th selector alone accepts the sentence s.
func accepts(r *Recognizer, k int, s string) bool {
	return r.SelectorAnnotated(k, nlp.Annotate(s))
}

// TestTable1ExampleSentences verifies that each example sentence of the
// paper's Table 1 is recognized as advising, via the selector designated for
// its category (category II and III share selector 2).
func TestTable1ExampleSentences(t *testing.T) {
	r := Default()
	cases := []struct {
		category string
		sentence string
		selector int
	}{
		{"I (keywords)",
			"This can be a good choice when the host does not read the memory object to avoid the host having to make a copy of the data to transfer.", 1},
		{"II (comparative)",
			"Thus, a developer may prefer using buffers instead of images if no sampling operation is needed.", 2},
		{"III (passive)",
			"This synchronization guarantee can often be leveraged to avoid explicit clWaitForEvents() calls between command submissions.", 2},
		{"IV (imperative)",
			"Pinning takes time, so avoid incurring pinning costs where CPU overhead must be avoided.", 3},
		{"V (subject)",
			"For peak performance on all devices, developers can choose to use conditional compilation for key code loops in the kernel, or in some cases even provide two separate kernels.", 4},
		{"VI (purpose)",
			"The first step in maximizing overall memory throughput for the application is to minimize data transfers with low bandwidth.", 5},
	}
	for _, c := range cases {
		ann := nlp.Annotate(c.sentence)
		if !r.SelectorAnnotated(c.selector, ann) {
			t.Errorf("category %s: selector %d rejected the designated example:\n%q\n%s",
				c.category, c.selector, c.sentence, ann.Tree)
		}
		res := r.ClassifyAnnotated(ann)
		if !res.Advising {
			t.Errorf("category %s: ClassifyAnnotated says non-advising for %q", c.category, c.sentence)
		}
	}
}

func TestSelector1Stemming(t *testing.T) {
	r := Default()
	// "encouraged" is a flagging word; stemming must let other variants hit
	positives := []string{
		"Developers are encouraged to profile before optimizing.",
		"We encourage the use of pinned memory for frequent transfers.",
		"Using intrinsic functions should be considered.",
		"Fusing the two kernels reduces launch overhead.", // "reduce"
		"Using textures can be useful for irregular access patterns.",
	}
	for _, s := range positives {
		if !accepts(r, 1, s) {
			t.Errorf("selector 1 rejected %q", s)
		}
	}
	negatives := []string{
		"The device has sixteen streaming multiprocessors.",
		"Each bank serves one request per cycle.",
	}
	for _, s := range negatives {
		if accepts(r, 1, s) {
			t.Errorf("selector 1 accepted %q", s)
		}
	}
}

func TestSelector1Phrases(t *testing.T) {
	r := Default()
	if !accepts(r, 1, "Buffers are a good choice for streaming writes.") {
		t.Error("phrase 'good choice' missed")
	}
	if accepts(r, 1, "The choice of scheduler is good for nothing here.") {
		t.Error("split phrase 'choice ... good' should not match")
	}
	if !accepts(r, 1, "One way to hide latency is increasing occupancy.") {
		t.Error("phrase 'one way to' missed")
	}
}

func TestSelector2XcompGovernors(t *testing.T) {
	r := Default()
	positives := []string{
		"A developer may prefer using buffers instead of images.",
		"It is recommended to queue kernels in batches.",
		"It is often better to recompute values than to store them.",
		"This guarantee can be leveraged to avoid explicit synchronization calls.",
		"It is faster to pack small transfers into one larger transfer.",
	}
	for _, s := range positives {
		if !accepts(r, 2, s) {
			t.Errorf("selector 2 rejected %q\n%s", s, depparse.ParseText(s))
		}
	}
	negatives := []string{
		"The warp scheduler issues one instruction per cycle.",
		"Each multiprocessor contains eight scalar processor cores.",
		"The program starts to run on the host.", // xcomp, but governor not in set
	}
	for _, s := range negatives {
		if accepts(r, 2, s) {
			t.Errorf("selector 2 accepted %q\n%s", s, depparse.ParseText(s))
		}
	}
}

func TestSelector3Imperatives(t *testing.T) {
	r := Default()
	positives := []string{
		"Use shared memory to reduce global memory traffic.",
		"Avoid bank conflicts in shared memory.",
		"Unroll small loops with a pragma directive.",
		"Align the starting address to the transaction size.",
		"Ensure that global accesses are coalesced.",
	}
	for _, s := range positives {
		if !accepts(r, 3, s) {
			t.Errorf("selector 3 rejected %q\n%s", s, depparse.ParseText(s))
		}
	}
	negatives := []string{
		"The kernel uses thirty-one registers for each thread.",
		"The compiler unrolls small loops automatically.", // has subject
		"All allocations are aligned on the boundary.",    // passive, subject
		"Consider the memory layout first.",               // verb not in IMPERATIVE WORDS
		"The warp size is thirty-two threads.",
		"Each bank serves one request per cycle.",
	}
	for _, s := range negatives {
		if accepts(r, 3, s) {
			t.Errorf("selector 3 accepted %q\n%s", s, depparse.ParseText(s))
		}
	}
}

func TestSelector3NegatedImperatives(t *testing.T) {
	r := Default()
	// "do not <imperative word> ..." is advice too; the aux chain must not
	// hide the imperative root
	positives := []string{
		"Do not use mapped memory for large transfers.",
		"Do not map the same buffer twice in one kernel.",
	}
	for _, s := range positives {
		if !accepts(r, 3, s) {
			t.Errorf("selector 3 rejected %q\n%s", s, depparse.ParseText(s))
		}
	}
	// negated declaratives with subjects stay out
	if accepts(r, 3, "The runtime does not use the second copy engine by default.") {
		t.Error("negated declarative accepted")
	}
}

func TestSelector4KeySubjects(t *testing.T) {
	r := Default()
	positives := []string{
		"Developers can choose to use conditional compilation for key loops.",
		"The programmer can also control loop unrolling using a pragma.",
		"The application should maximize parallel execution between functional units.",
		"This technique applies when the working set fits in shared memory.",
	}
	for _, s := range positives {
		if !accepts(r, 4, s) {
			t.Errorf("selector 4 rejected %q\n%s", s, depparse.ParseText(s))
		}
	}
	negatives := []string{
		"The warp size is thirty-two threads.",
		"Each bank can service one address per cycle.",
	}
	for _, s := range negatives {
		if accepts(r, 4, s) {
			t.Errorf("selector 4 accepted %q\n%s", s, depparse.ParseText(s))
		}
	}
}

func TestSelector5Purpose(t *testing.T) {
	r := Default()
	positives := []string{
		"The first step is to minimize data transfers with low bandwidth.",
		"Pad the shared array in order to avoid bank conflicts.",
		"Coalesce global accesses to maximize memory bandwidth utilization.",
		"Overlap transfers with computation to achieve full utilization.",
		"Coalesce the accesses to maximize bandwidth utilization.",
		"Pad the array in order to avoid bank conflicts.",
		"Use streams to achieve overlap between transfers and execution.",
	}
	for _, s := range positives {
		if !accepts(r, 5, s) {
			t.Errorf("selector 5 rejected %q\n%s", s, depparse.ParseText(s))
		}
	}
	negatives := []string{
		"Use the profiler to inspect occupancy.", // predicate not in set
		"Use the profiler to inspect the kernel.",
		"The scheduler issues instructions in order.",
		"The warp scheduler issues instructions in order.",
		"Bank conflicts increase latency.",
	}
	for _, s := range negatives {
		if accepts(r, 5, s) {
			t.Errorf("selector 5 accepted %q\n%s", s, depparse.ParseText(s))
		}
	}
}

func TestClassifyReportsFirstSelector(t *testing.T) {
	r := Default()
	res := r.ClassifyAnnotated(nlp.Annotate("Buffers are a good choice for streaming writes."))
	if !res.Advising || res.Selector != Keyword {
		t.Errorf("got %+v, want keyword selector", res)
	}
	res = r.ClassifyAnnotated(nlp.Annotate("Avoid bank conflicts in shared memory."))
	if !res.Advising || res.Selector != Imperative {
		t.Errorf("got %+v, want imperative selector", res)
	}
	res = r.ClassifyAnnotated(nlp.Annotate("Each bank serves one request per cycle."))
	if res.Advising || res.Selector != None {
		t.Errorf("got %+v, want non-advising", res)
	}
}

// TestClassifyParsedMatchesClassify: classifying a pre-parsed tree (via
// nlp.FromTree) gives the same result as classifying the raw sentence.
func TestClassifyParsedMatchesClassify(t *testing.T) {
	r := Default()
	sentences := []string{
		"Avoid bank conflicts in shared memory.",
		"The warp size is thirty-two threads.",
		"Developers can use streams to overlap transfers.",
		"It is recommended to queue kernels in batches.",
	}
	for _, s := range sentences {
		a := r.ClassifyAnnotated(nlp.Annotate(s))
		b := r.ClassifyAnnotated(nlp.FromTree(s, depparse.ParseText(s)))
		if a != b {
			t.Errorf("classifying %q = %+v but from its parsed tree = %+v", s, a, b)
		}
	}
}

func TestXeonTunedConfig(t *testing.T) {
	tuned := New(XeonTunedConfig())
	base := Default()
	s := "Users should note that the data have to be aligned on the boundary for vectorization."
	if !accepts(tuned, 1, s) {
		t.Errorf("tuned config should flag 'have to be' sentence")
	}
	s2 := "One can experiment with smaller block sizes."
	if !accepts(tuned, 4, s2) {
		t.Errorf("tuned config should accept subject 'one'\n%s", depparse.ParseText(s2))
	}
	if got := base.ClassifyAnnotated(nlp.Annotate(s2)); got.Selector == Subject {
		t.Errorf("base config should not accept subject 'one'")
	}
}

// Property: adding a flagging keyword never flips an advising sentence to
// non-advising (selector monotonicity).
func TestSelectorMonotonicity(t *testing.T) {
	base := Default()
	extended := New(func() Config {
		c := DefaultConfig()
		c.FlaggingWords = append(c.FlaggingWords, "magic phrase")
		return c
	}())
	sentences := []string{
		"Avoid bank conflicts in shared memory.",
		"The warp size is thirty-two threads.",
		"Buffers are a good choice for streaming writes.",
		"Developers can use streams to overlap transfers.",
	}
	for _, s := range sentences {
		if base.ClassifyAnnotated(nlp.Annotate(s)).Advising && !extended.ClassifyAnnotated(nlp.Annotate(s)).Advising {
			t.Errorf("monotonicity violated for %q", s)
		}
	}
}

// TestClassifyAnnotatedRepeatable verifies that re-classifying the same
// annotation (whose lazy products memoize) gives the same result.
func TestClassifyAnnotatedRepeatable(t *testing.T) {
	rec := Default()
	g := corpus.GenerateSized(corpus.CUDA, 60, 0.3, 9)
	for _, s := range g.Texts() {
		ann := nlp.Annotate(s)
		first := rec.ClassifyAnnotated(ann)
		second := rec.ClassifyAnnotated(ann)
		if first != second {
			t.Fatalf("classification of a shared annotation is not stable: %+v then %+v (%q)",
				first, second, s)
		}
	}
}

func TestAllKeywords(t *testing.T) {
	cfg := DefaultConfig()
	all := cfg.AllKeywords()
	want := len(cfg.FlaggingWords) + len(cfg.XcompGovernors) +
		len(cfg.ImperativeWords) + len(cfg.KeySubjects) + len(cfg.KeyPredicates)
	if len(all) != want {
		t.Errorf("AllKeywords length %d, want %d", len(all), want)
	}
}

func TestSelectorIDString(t *testing.T) {
	names := map[SelectorID]string{
		None: "none", Keyword: "keyword", Imperative: "imperative",
		Subject: "subject", Purpose: "purpose",
	}
	for id, want := range names {
		if got := id.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", id, got, want)
		}
	}
}

func BenchmarkClassify(b *testing.B) {
	r := Default()
	sentences := []string{
		"Avoid bank conflicts in shared memory.",
		"The warp size is thirty-two threads.",
		"This synchronization guarantee can often be leveraged to avoid explicit calls.",
		"The first step is to minimize data transfers with low bandwidth.",
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.ClassifyAnnotated(nlp.Annotate(sentences[i%len(sentences)]))
	}
}
