package baselines

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/htmldoc"
	"repro/internal/nlp"
	"repro/internal/selectors"
	"repro/internal/vsm"
)

var sentences = []string{
	"Use shared memory to reduce global memory traffic.",      // 0 advising
	"The warp size is thirty-two threads.",                    // 1 fact
	"Avoid bank conflicts in shared memory.",                  // 2 advising
	"Divergent branches lower warp execution efficiency.",     // 3 fact w/ keywords
	"Each bank serves one request per cycle.",                 // 4 fact
	"Minimizing divergence improves the throughput of warps.", // 5 advising-ish
}

func TestKeywordSearchStemming(t *testing.T) {
	got := KeywordSearch(sentences, []string{"divergence"})
	// stemmed "diverg" matches both "Divergent" (no: divergent stems to
	// "diverg"? "divergent" -> step: 'ent' removal requires m>1: diverg-ent
	// -> "diverg") and "divergence"/"Minimizing divergence".
	if len(got) < 2 {
		t.Errorf("stemming missed variants: %v", got)
	}
	found3, found5 := false, false
	for _, i := range got {
		if i == 3 {
			found3 = true
		}
		if i == 5 {
			found5 = true
		}
	}
	if !found3 || !found5 {
		t.Errorf("expected sentences 3 and 5, got %v", got)
	}
}

func TestKeywordSearchPhrases(t *testing.T) {
	got := KeywordSearch(sentences, []string{"warp execution efficiency"})
	if len(got) != 1 || got[0] != 3 {
		t.Errorf("phrase match: %v", got)
	}
}

func TestKeywordSearchEmpty(t *testing.T) {
	if got := KeywordSearch(sentences, nil); got != nil {
		t.Errorf("no keywords should match nothing: %v", got)
	}
	if got := KeywordSearch(nil, []string{"memory"}); got != nil {
		t.Errorf("no sentences: %v", got)
	}
}

// TestKeywordAllRecognize: the Table 8 KeywordAll row is KeywordSearch
// over every keyword of the configuration.
func TestKeywordAllRecognize(t *testing.T) {
	got := KeywordSearch(sentences, selectors.DefaultConfig().AllKeywords())
	// sentence 0 contains "use"/"reduce" (imperative/flagging keywords);
	// sentence 4 contains none of the keywords
	if !slices.Contains(got, 0) {
		t.Errorf("KeywordAll should flag sentence 0: %v", got)
	}
	if slices.Contains(got, 4) {
		t.Errorf("KeywordAll flagged a clean sentence: %v", got)
	}
}

func TestKeywordAllSupersetOfSelector1(t *testing.T) {
	cfg := selectors.DefaultConfig()
	rec := selectors.New(cfg)
	all := KeywordSearch(sentences, cfg.AllKeywords())
	for i, s := range sentences {
		if rec.SelectorAnnotated(1, nlp.Annotate(s)) && !slices.Contains(all, i) {
			t.Errorf("KeywordAll missed a selector-1 sentence: %q", s)
		}
	}
}

// TestSingleSelectorRecognize: the single-selector rows of Table 8 run one
// selector alone over the sentences; the imperative selector alone must
// accept the imperatives and reject the facts.
func TestSingleSelectorRecognize(t *testing.T) {
	rec := selectors.Default()
	imp := make([]bool, len(sentences))
	for i, s := range sentences {
		imp[i] = rec.SelectorAnnotated(3, nlp.Annotate(s))
	}
	if !imp[0] || !imp[2] {
		t.Errorf("imperative selector missed imperatives: %v", imp)
	}
	if imp[1] || imp[4] {
		t.Errorf("imperative selector flagged facts: %v", imp)
	}
}

func TestQueryKeywordsCoverAllIssues(t *testing.T) {
	issues := []string{
		"Low Warp Execution Efficiency",
		"Divergent Branches",
		"Global Memory Alignment and Access Pattern",
		"GPU Utilization is Limited by Memory Instruction Execution",
		"Instruction Latencies may be Limiting Performance",
		"GPU Utilization is Limited by Memory Bandwidth",
		"Something Unknown",
	}
	for _, issue := range issues {
		if cands := QueryKeywords(issue); len(cands) == 0 {
			t.Errorf("no candidates for %q", issue)
		}
	}
}

// TestFullDocQueryBypassesStageI: the full-doc method retrieves over the
// whole document, so it surfaces sentences Stage I rejected — here the
// explanatory "warp size" sentence, which Egeria's answers never include.
func TestFullDocQueryBypassesStageI(t *testing.T) {
	sents := make([]htmldoc.Sentence, len(sentences))
	for i, s := range sentences {
		sents[i] = htmldoc.Sentence{Text: s}
	}
	adv := core.New().BuildFromSentences(nil, sents)
	full := vsm.Build(sentences)
	sawNonAdvising := false
	for _, i := range FullDocQuery(full, "warp size threads", 0.1) {
		if !adv.IsAdvising(i) {
			sawNonAdvising = true
		}
	}
	if !sawNonAdvising {
		t.Error("full-doc baseline should surface non-advising sentences")
	}
	for _, a := range adv.Query("warp size threads") {
		if !adv.IsAdvising(a.Sentence.Index) {
			t.Errorf("Egeria answered with non-advising sentence %d", a.Sentence.Index)
		}
	}
	if got := FullDocQuery(full, "warp size threads", 0); len(got) != len(sentences) {
		t.Errorf("threshold 0: %d sentences, want every one of %d", len(got), len(sentences))
	}
}
