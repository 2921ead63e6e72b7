package corpus

import (
	"strings"
	"testing"

	"repro/internal/textproc"
)

func TestGenerateSizesMatchTable7(t *testing.T) {
	cases := []struct {
		reg   Register
		total int
	}{
		{CUDA, 2140},
		{OpenCL, 1944},
		{XeonPhi, 558},
	}
	for _, c := range cases {
		g := Generate(c.reg, 1)
		if len(g.Sentences) != c.total {
			t.Errorf("%v: %d sentences, want %d", c.reg, len(g.Sentences), c.total)
		}
		if len(g.Labels) != len(g.Sentences) {
			t.Errorf("%v: labels misaligned: %d vs %d", c.reg, len(g.Labels), len(g.Sentences))
		}
	}
}

func TestGenerateEvalSubsetSizes(t *testing.T) {
	cases := []struct {
		reg      Register
		sents    int
		advising int
	}{
		{CUDA, 177, 52},
		{OpenCL, 556, 128},
		{XeonPhi, 558, 120},
	}
	for _, c := range cases {
		g := Generate(c.reg, 1)
		texts, labels := g.EvalSentences()
		if len(texts) != c.sents {
			t.Errorf("%v eval size = %d, want %d", c.reg, len(texts), c.sents)
		}
		adv := 0
		for _, l := range labels {
			if l.Advising {
				adv++
			}
		}
		if adv != c.advising {
			t.Errorf("%v eval advising = %d, want %d", c.reg, adv, c.advising)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(CUDA, 7)
	b := Generate(CUDA, 7)
	if len(a.Sentences) != len(b.Sentences) {
		t.Fatal("length differs")
	}
	for i := range a.Sentences {
		if a.Sentences[i].Text != b.Sentences[i].Text {
			t.Fatalf("sentence %d differs", i)
		}
		if a.Labels[i] != b.Labels[i] {
			t.Fatalf("label %d differs", i)
		}
	}
	c := Generate(CUDA, 8)
	same := 0
	for i := range a.Sentences {
		if i < len(c.Sentences) && a.Sentences[i].Text == c.Sentences[i].Text {
			same++
		}
	}
	if same == len(a.Sentences) {
		t.Error("different seeds produced identical guides")
	}
}

func TestGenerateSentenceSplitRoundTrip(t *testing.T) {
	// every generated sentence must survive the sentence splitter intact so
	// that the advisor pipeline sees the same units the labels describe.
	g := Generate(CUDA, 1)
	for i, s := range g.Sentences {
		parts := textproc.SentenceStrings(s.Text)
		if len(parts) != 1 {
			t.Errorf("sentence %d splits into %d parts: %q", i, len(parts), s.Text)
			if i > 20 {
				t.Fatal("too many failures")
			}
		}
	}
}

func TestNuggetsPresentWithSubtopics(t *testing.T) {
	g := Generate(CUDA, 1)
	wantCounts := map[string]int{
		"warp-efficiency": 6,
		"divergence":      2,
		"mem-alignment":   7,
		"mem-instruction": 8,
		"instr-latency":   11,
		"mem-bandwidth":   18,
	}
	got := map[string]int{}
	for _, l := range g.Labels {
		if l.Subtopic != "" {
			got[l.Subtopic]++
		}
	}
	for sub, want := range wantCounts {
		if got[sub] != want {
			t.Errorf("subtopic %q: %d nuggets, want %d (Table 6 ground truth)", sub, got[sub], want)
		}
	}
}

func TestGroundTruthMatchesQueries(t *testing.T) {
	g := Generate(CUDA, 1)
	wantPerQuery := []int{6, 2, 7, 8, 11, 18}
	queries := CUDAQueries()
	if len(queries) != 6 {
		t.Fatalf("%d queries, want 6", len(queries))
	}
	for i, q := range queries {
		gt := g.GroundTruth(q)
		if len(gt) != wantPerQuery[i] {
			t.Errorf("query %q: %d ground-truth sentences, want %d", q.Issue, len(gt), wantPerQuery[i])
		}
		for _, idx := range gt {
			if !g.Labels[idx].Advising {
				t.Errorf("query %q ground truth includes non-advising sentence %d", q.Issue, idx)
			}
		}
	}
}

func TestPaperQuotedSentencesIncluded(t *testing.T) {
	quoted := map[Register]string{
		CUDA:    "The first step in maximizing overall memory throughput for the application is to minimize data transfers with low bandwidth.",
		OpenCL:  "Thus, a developer may prefer using buffers instead of images if no sampling operation is needed.",
		XeonPhi: "Users have to pin the OpenMP threads explicitly, because the default placement scatters them across cores.",
	}
	for reg, want := range quoted {
		g := Generate(reg, 1)
		found := false
		for _, s := range g.Sentences {
			if s.Text == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%v guide is missing the paper-quoted sentence %q", reg, want)
		}
	}
}

func TestHardFractionOrdering(t *testing.T) {
	// The hard-advising share must rise CUDA < OpenCL < Xeon, driving the
	// Table 8 recall ordering (0.92 > 0.80 > 0.71).
	frac := func(reg Register) float64 {
		g := Generate(reg, 1)
		hard, adv := 0, 0
		for _, l := range g.Labels {
			if l.Advising {
				adv++
				if l.Category == CatHard {
					hard++
				}
			}
		}
		return float64(hard) / float64(adv)
	}
	c, o, x := frac(CUDA), frac(OpenCL), frac(XeonPhi)
	if !(c < o && o < x) {
		t.Errorf("hard fractions not ordered: CUDA %.3f, OpenCL %.3f, Xeon %.3f", c, o, x)
	}
}

func TestSectionStructure(t *testing.T) {
	g := Generate(CUDA, 1)
	if g.Doc.Title == "" {
		t.Error("missing title")
	}
	if len(g.Doc.Sections) < 10 {
		t.Errorf("only %d sections", len(g.Doc.Sections))
	}
	// the evaluation chapter must be titled Performance Guidelines
	sec := g.SectionOf(g.EvalStart)
	if !strings.HasPrefix(sec, "5.") {
		t.Errorf("eval chapter section = %q", sec)
	}
	if g.SectionOf(-1) != "" || g.SectionOf(len(g.Sentences)) != "" {
		t.Error("out-of-range SectionOf should be empty")
	}
}

func TestGenerateSized(t *testing.T) {
	g := GenerateSized(CUDA, 200, 0.2, 3)
	if len(g.Sentences) != 200 {
		t.Errorf("size = %d", len(g.Sentences))
	}
	adv := g.AdvisingCount()
	if adv < 30 || adv > 60 {
		t.Errorf("advising count %d out of expected band", adv)
	}
}

func TestSimulateRatersAgreement(t *testing.T) {
	g := Generate(CUDA, 1)
	_, labels := g.EvalSentences()
	raters := SimulateRaters(labels, 3, 42)
	if len(raters) != 3 {
		t.Fatal("rater count")
	}
	// raters must agree with ground truth on the vast majority of sentences
	for r, v := range raters {
		if len(v) != len(labels) {
			t.Fatalf("rater %d length %d", r, len(v))
		}
		agree := 0
		for i := range v {
			if v[i] == labels[i].Advising {
				agree++
			}
		}
		if float64(agree)/float64(len(v)) < 0.9 {
			t.Errorf("rater %d agreement %.2f too low", r, float64(agree)/float64(len(v)))
		}
	}
}

func TestRegisterString(t *testing.T) {
	if CUDA.String() != "CUDA" || OpenCL.String() != "OpenCL" || XeonPhi.String() != "Xeon" {
		t.Error("register names")
	}
	if Register(99).String() != "unknown" {
		t.Error("unknown register")
	}
	// the lowercased name is the canonical spelling ParseRegister accepts
	for _, r := range []Register{CUDA, OpenCL, XeonPhi} {
		if got, err := ParseRegister(strings.ToLower(r.String())); err != nil || got != r {
			t.Errorf("ParseRegister(%q) = %v, %v", strings.ToLower(r.String()), got, err)
		}
	}
}

func TestFillDeterministicSlots(t *testing.T) {
	g1 := Generate(XeonPhi, 5)
	g2 := Generate(XeonPhi, 5)
	for i := range g1.Sentences {
		if g1.Sentences[i].Text != g2.Sentences[i].Text {
			t.Fatal("slot filling nondeterministic")
		}
	}
	// no unresolved placeholders
	for _, s := range g1.Sentences {
		if strings.ContainsAny(s.Text, "{}") {
			t.Errorf("unresolved slot in %q", s.Text)
		}
	}
}

func BenchmarkGenerateCUDA(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Generate(CUDA, int64(i))
	}
}
