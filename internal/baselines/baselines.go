// Package baselines implements the comparison methods of the paper's
// evaluation: the one-stage "keywords" method (stemmed keyword search over
// the raw document), the "full-doc" method (VSM/TF-IDF retrieval without
// advising-sentence recognition), and the "KeywordAll" recognition baseline
// of Table 8 (the keywords method over the union of every keyword set).
package baselines

import (
	"context"
	"strings"

	"repro/internal/nlp"
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
// Over a configuration's AllKeywords it is the Table 8 "KeywordAll" row:
// selector 1 with the union of all keyword sets as FLAGGING WORDS.
func KeywordSearch(sentences []string, keywords []string) []int {
	phrases := textproc.StemPhrases(keywords)
	var out []int
	for i, s := range sentences {
		if textproc.FindPhrase(textproc.StemAll(textproc.Words(s)), phrases) >= 0 {
			out = append(out, i)
		}
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
