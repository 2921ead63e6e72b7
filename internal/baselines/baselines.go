// Package baselines implements the comparison methods of the paper's
// evaluation: the one-stage "keywords" method (stemmed keyword search over
// the raw document), the "full-doc" method (VSM/TF-IDF retrieval without
// advising-sentence recognition), the "KeywordAll" recognition baseline of
// Table 8 (selector 1 run with the union of every keyword set), and
// single-selector recognition.
package baselines

import (
	"context"
	"strings"

	"repro/internal/nlp"
	"repro/internal/selectors"
	"repro/internal/textproc"
	"repro/internal/vsm"
)

// FullDocQuery implements the paper's full-doc method (§4.2): TF-IDF/cosine
// retrieval over every sentence of the document, with no advising-sentence
// recognition. full indexes the whole document (vsm.Build over its
// sentence texts); the result is the indices of the sentences scoring at or
// above threshold, best first. A threshold at or below zero returns every
// sentence.
func FullDocQuery(full *vsm.Index, q string, threshold float64) []int {
	matches := full.Query(context.Background(), nlp.QueryTerms(q), threshold)
	out := make([]int, len(matches))
	for i, m := range matches {
		out[i] = m.Index
	}
	return out
}

// KeywordSearch implements the paper's keywords method: it returns the
// indices of the sentences containing any of the given keywords, with both
// keywords and sentences reduced to stems so variants of a word match
// (§4.2: "Both the keywords and the words in the document are reduced to
// their stem forms").  Multi-word keywords match as consecutive stems.
func KeywordSearch(sentences []string, keywords []string) []int {
	phrases := make([][]string, 0, len(keywords))
	for _, k := range keywords {
		if stems := textproc.StemAll(textproc.Words(k)); len(stems) > 0 {
			phrases = append(phrases, stems)
		}
	}
	var out []int
	for i, s := range sentences {
		stems := textproc.StemAll(textproc.Words(s))
		for _, p := range phrases {
			if containsSeq(stems, p) {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

// KeywordSearchNoStemming is the ablation the paper mentions: exact
// lowercase substring matching without stemming ("the false positives ...
// could get reduced slightly, but the recall rate would get much lower").
func KeywordSearchNoStemming(sentences []string, keywords []string) []int {
	lowered := make([]string, len(keywords))
	for i, k := range keywords {
		lowered[i] = strings.ToLower(k)
	}
	var out []int
	for i, s := range sentences {
		ls := strings.ToLower(s)
		for _, k := range lowered {
			if k != "" && strings.Contains(ls, k) {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

func containsSeq(haystack, needle []string) bool {
	if len(needle) == 0 || len(needle) > len(haystack) {
		return false
	}
outer:
	for i := 0; i+len(needle) <= len(haystack); i++ {
		for j, n := range needle {
			if haystack[i+j] != n {
				continue outer
			}
		}
		return true
	}
	return false
}

// KeywordAllRecognize implements the Table 8 "KeywordAll" row: selector 1
// with the union of all keyword sets replacing FLAGGING WORDS. Returns the
// per-sentence advising predictions.
func KeywordAllRecognize(cfg selectors.Config, sentences []string) []bool {
	union := selectors.Config{FlaggingWords: cfg.AllKeywords()}
	rec := selectors.New(union)
	out := make([]bool, len(sentences))
	for i, s := range sentences {
		out[i] = rec.Selector1(s)
	}
	return out
}

// SingleSelectorRecognize runs only the k-th selector (1-5) over the
// sentences — the per-selector rows of Table 8. Annotates each sentence
// once; callers running several selectors over the same sentences should
// annotate once themselves and use Recognizer.SelectorAnnotated.
func SingleSelectorRecognize(rec *selectors.Recognizer, k int, sentences []string) []bool {
	out := make([]bool, len(sentences))
	for i, s := range sentences {
		out[i] = rec.SelectorAnnotated(k, nlp.Annotate(s))
	}
	return out
}

// QueryKeywords lists the candidate keyword sets the paper tried for each
// Table 6 performance issue (§4.2); the harness picks the best by
// F-measure, as the paper's underlining does.
func QueryKeywords(issue string) [][]string {
	switch {
	case strings.Contains(issue, "Warp Execution"):
		return [][]string{{"warp"}, {"execution"}, {"efficiency"}, {"warp efficiency"}, {"warp execution efficiency"}}
	case strings.Contains(issue, "Divergent"):
		return [][]string{{"divergence"}, {"branch"}, {"divergent branch"}}
	case strings.Contains(issue, "Alignment"):
		return [][]string{{"memory"}, {"alignment"}, {"memory alignment"}, {"access pattern"}}
	case strings.Contains(issue, "Memory Instruction"):
		return [][]string{{"utilization"}, {"memory"}, {"instruction"}, {"memory instruction"}, {"instruction throughput"}}
	case strings.Contains(issue, "Latencies"):
		return [][]string{{"instruction"}, {"latency"}, {"instruction latency"}}
	case strings.Contains(issue, "Bandwidth"):
		return [][]string{{"memory"}, {"bandwidth"}, {"memory bandwidth"}, {"transfer"}}
	}
	return [][]string{{"performance"}}
}
