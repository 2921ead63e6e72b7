// Package eval implements the evaluation metrics of the paper: precision,
// recall, F-measure (§4.2), and Fleiss' kappa for inter-rater agreement
// (§4.2/§4.3), plus bootstrap intervals, a permutation test and table
// rendering used by the experiment harness.
package eval

import (
	"fmt"
	"strings"
)

// PRF holds precision, recall and F-measure.
type PRF struct {
	Precision float64
	Recall    float64
	F         float64
	TP        int
	FP        int
	FN        int
}

// Score computes P/R/F from predicted and ground-truth boolean vectors.
// Panics if the lengths differ (caller bug).
func Score(predicted, truth []bool) PRF {
	if len(predicted) != len(truth) {
		panic(fmt.Sprintf("eval: length mismatch %d vs %d", len(predicted), len(truth)))
	}
	var tp, fp, fn int
	for i := range predicted {
		switch {
		case predicted[i] && truth[i]:
			tp++
		case predicted[i] && !truth[i]:
			fp++
		case !predicted[i] && truth[i]:
			fn++
		}
	}
	return FromCounts(tp, fp, fn)
}

// ScoreSets computes P/R/F from answer and ground-truth index sets.
func ScoreSets(answers, truth []int) PRF {
	truthSet := make(map[int]bool, len(truth))
	for _, t := range truth {
		truthSet[t] = true
	}
	var tp, fp int
	seen := map[int]bool{}
	for _, a := range answers {
		if seen[a] {
			continue
		}
		seen[a] = true
		if truthSet[a] {
			tp++
		} else {
			fp++
		}
	}
	fn := len(truthSet) - tp
	return FromCounts(tp, fp, fn)
}

// FromCounts computes the metrics from raw counts.
func FromCounts(tp, fp, fn int) PRF {
	p := PRF{TP: tp, FP: fp, FN: fn}
	if tp+fp > 0 {
		p.Precision = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		p.Recall = float64(tp) / float64(tp+fn)
	}
	if p.Precision+p.Recall > 0 {
		p.F = 2 * p.Precision * p.Recall / (p.Precision + p.Recall)
	}
	return p
}

// String renders the metrics the way the paper's tables do.
func (p PRF) String() string {
	return fmt.Sprintf("P=%.3f R=%.3f F=%.3f", p.Precision, p.Recall, p.F)
}

// FleissKappa computes Fleiss' kappa for n subjects rated by k raters into
// categories. ratings[i][c] is the number of raters assigning subject i to
// category c; every row must sum to the same rater count k >= 2.
// Returns kappa in [-1, 1]; a degenerate case (all ratings identical in one
// category) returns 1.
func FleissKappa(ratings [][]int) float64 {
	n := len(ratings)
	if n == 0 {
		return 1
	}
	k := 0
	for _, c := range ratings[0] {
		k += c
	}
	if k < 2 {
		return 1
	}
	nCat := len(ratings[0])
	pj := make([]float64, nCat)
	var pBarSum float64
	for _, row := range ratings {
		total := 0
		var rowAgreement float64
		for c, cnt := range row {
			total += cnt
			pj[c] += float64(cnt)
			rowAgreement += float64(cnt * (cnt - 1))
		}
		if total != k {
			panic("eval: ragged rating matrix")
		}
		pBarSum += rowAgreement / float64(k*(k-1))
	}
	pBar := pBarSum / float64(n)
	var pe float64
	for _, s := range pj {
		frac := s / float64(n*k)
		pe += frac * frac
	}
	if pe >= 1 {
		return 1
	}
	return (pBar - pe) / (1 - pe)
}

// FleissKappaBinary computes Fleiss' kappa for boolean rater vectors
// (raters[r][i] is rater r's label for subject i).
func FleissKappaBinary(raters [][]bool) float64 {
	if len(raters) == 0 || len(raters[0]) == 0 {
		return 1
	}
	n := len(raters[0])
	ratings := make([][]int, n)
	for i := 0; i < n; i++ {
		row := make([]int, 2)
		for _, r := range raters {
			if r[i] {
				row[1]++
			} else {
				row[0]++
			}
		}
		ratings[i] = row
	}
	return FleissKappa(ratings)
}

// Table renders an aligned text table with a header row, used by the
// experiment binaries to print the paper's tables.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) {
				for p := len(c); p < widths[i]; p++ {
					b.WriteByte(' ')
				}
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// F3 formats a float with three decimals, the paper's table style.
func F3(v float64) string { return fmt.Sprintf("%.3f", v) }

// F2 formats a float with two decimals.
func F2(v float64) string { return fmt.Sprintf("%.2f", v) }
