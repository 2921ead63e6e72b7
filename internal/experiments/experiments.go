// Package experiments regenerates every table and figure of the paper's
// evaluation section against the synthetic corpora: Table 3 (report issue
// extraction), Table 4 / Fig. 4 (query retrieval), Table 5 (user study),
// Table 6 (answer quality vs the full-doc and keywords baselines), Table 7
// (guide compression statistics), Table 8 (advising sentence recognition
// ablation), the Fleiss' kappa checks, and the extension ablations
// (threshold sweep, serial-vs-parallel Stage I). cmd/egeria-eval prints the
// tables; bench_test.go wraps each experiment in a testing.B benchmark.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/nlp"
	"repro/internal/nvvp"
	"repro/internal/selectors"
	"repro/internal/study"
	"repro/internal/summarize"
	"repro/internal/vsm"
)

// Seed fixes corpus generation across all experiments.
const Seed = 1

// BuildAdvisor synthesizes the advisor for a register's full guide.
func BuildAdvisor(reg corpus.Register) (*corpus.Guide, *core.Advisor) {
	g := corpus.Generate(reg, Seed)
	adv := core.New().BuildFromSentences(g.Doc, g.Sentences)
	return g, adv
}

// FormatBuildStats renders the per-stage timings of the annotate-once build
// pipeline (annotate / classify / index) — the evaluation-harness view of
// where synthesis time goes.
func FormatBuildStats(name string, adv *core.Advisor) string {
	st := adv.BuildStats()
	return fmt.Sprintf(
		"Build pipeline (%s): %d sentences -> %d rules; annotate %v, classify %v, index %v",
		name, st.Sentences, st.Advising, st.Annotate, st.Classify, st.Indexing)
}

// --- Table 3 -------------------------------------------------------------

// Table3 reproduces the report-issue extraction of the paper's Table 3: the
// subsections of the norm.cu NVVP report that become advisor queries.
func Table3() (string, error) {
	text, err := nvvp.Synthesize("norm")
	if err != nil {
		return "", err
	}
	report, err := nvvp.Parse(text)
	if err != nil {
		return "", err
	}
	t := &eval.Table{Header: []string{"Subsection", "Description (abridged)"}}
	for _, issue := range report.Issues() {
		desc := issue.Description
		if len(desc) > 90 {
			desc = desc[:87] + "..."
		}
		t.AddRow(issue.Title, desc)
	}
	return "Table 3: Subsections from the norm.cu NVVP report used as queries\n" + t.String(), nil
}

// --- Table 4 / Fig. 4 ----------------------------------------------------

// Table4 reproduces the paper's Table 4: the sentences the CUDA advisor
// retrieves for the student query "reduce instruction and memory latency".
func Table4(g *corpus.Guide, adv *core.Advisor) string {
	const query = "reduce instruction and memory latency"
	answers := adv.Query(query)
	t := &eval.Table{Header: []string{"Section", "Score", "Sentence"}}
	for _, a := range answers {
		text := a.Sentence.Text
		if len(text) > 86 {
			text = text[:83] + "..."
		}
		t.AddRow(a.Sentence.Section, eval.F2(a.Score), text)
	}
	return fmt.Sprintf("Table 4: Retrieved sentences for the query %q (%d answers)\n%s",
		query, len(answers), t.String())
}

// --- Table 5 -------------------------------------------------------------

// Table5 runs the simulated user study on the CUDA advisor.
func Table5(adv *core.Advisor) (*study.Results, string, error) {
	res, err := study.Run(adv, study.DefaultParams())
	if err != nil {
		return nil, "", err
	}
	return res, study.Table5(res), nil
}

// --- Table 6 -------------------------------------------------------------

// Table6Row is one performance issue's scores for the three methods.
type Table6Row struct {
	Report      string
	Issue       string
	GroundTruth int
	Egeria      eval.PRF
	FullDoc     eval.PRF
	Keywords    eval.PRF
	BestKeyword string
}

// Table6 evaluates answer quality on the six performance-issue queries for
// Egeria, the full-doc method, and the keywords method (best keyword set per
// issue, as the paper's underlining selects).
func Table6(g *corpus.Guide, adv *core.Advisor) []Table6Row {
	texts := g.Texts()
	full := vsm.Build(texts)
	var rows []Table6Row
	for _, q := range corpus.CUDAQueries() {
		truth := g.GroundTruth(q)

		var egeriaIdx []int
		for _, a := range adv.Query(q.Text) {
			egeriaIdx = append(egeriaIdx, a.Sentence.Index)
		}
		fullIdx := baselines.FullDocQuery(full, q.Text, 0.15)

		best := eval.PRF{}
		bestKw := ""
		for _, cand := range baselines.QueryKeywords(q.Issue) {
			got := baselines.KeywordSearch(texts, cand)
			score := eval.ScoreSets(got, truth)
			if score.F > best.F {
				best = score
				bestKw = strings.Join(cand, " ")
			}
		}

		rows = append(rows, Table6Row{
			Report:      q.Report,
			Issue:       q.Issue,
			GroundTruth: len(truth),
			Egeria:      eval.ScoreSets(egeriaIdx, truth),
			FullDoc:     eval.ScoreSets(fullIdx, truth),
			Keywords:    best,
			BestKeyword: bestKw,
		})
	}
	return rows
}

// FormatTable6 renders Table6 rows in the paper's layout.
func FormatTable6(rows []Table6Row) string {
	t := &eval.Table{Header: []string{
		"Report", "Performance Issue", "#gt",
		"Egeria P", "R", "F",
		"Full-doc P", "R", "F",
		"Keywords P", "R", "F",
	}}
	for _, r := range rows {
		issue := r.Issue
		if len(issue) > 44 {
			issue = issue[:41] + "..."
		}
		t.AddRow(r.Report, issue, fmt.Sprint(r.GroundTruth),
			eval.F3(r.Egeria.Precision), eval.F3(r.Egeria.Recall), eval.F3(r.Egeria.F),
			eval.F3(r.FullDoc.Precision), eval.F3(r.FullDoc.Recall), eval.F3(r.FullDoc.F),
			eval.F3(r.Keywords.Precision), eval.F3(r.Keywords.Recall), eval.F3(r.Keywords.F))
	}
	return "Table 6: Quality of Answers on Performance Queries\n" + t.String()
}

// --- Table 7 -------------------------------------------------------------

// Table7Row is one guide's compression statistics.
type Table7Row struct {
	Guide     string
	Sentences int
	Selected  int
	Ratio     float64
}

// Table7 computes the Stage-I compression statistics for all three guides.
func Table7() []Table7Row {
	var rows []Table7Row
	for _, reg := range []corpus.Register{corpus.CUDA, corpus.OpenCL, corpus.XeonPhi} {
		g, adv := BuildAdvisor(reg)
		rows = append(rows, Table7Row{
			Guide:     reg.String() + " Guide",
			Sentences: len(g.Sentences),
			Selected:  len(adv.Rules()),
			Ratio:     adv.CompressionRatio(),
		})
	}
	return rows
}

// FormatTable7 renders Table7 rows in the paper's layout.
func FormatTable7(rows []Table7Row) string {
	t := &eval.Table{Header: []string{"Documentation", "Sentences", "Egeria's selection", "Ratio"}}
	for _, r := range rows {
		t.AddRow(r.Guide, fmt.Sprint(r.Sentences), fmt.Sprint(r.Selected), fmt.Sprintf("%.1f", r.Ratio))
	}
	return "Table 7: Statistics of the guides and Egeria's selections\n" + t.String()
}

// --- Table 8 -------------------------------------------------------------

// Table8Row is one method's recognition quality on one guide.
type Table8Row struct {
	Method   string
	Selected int
	Correct  int
	PRF      eval.PRF
}

// recognitionData holds the shared per-selector predictions over a guide's
// evaluation subset; computed once and reused by Table 8 and its ablations.
type recognitionData struct {
	texts    []string
	truth    []bool
	perSel   [5][]bool // predictions of each selector alone
	kwAll    []bool
	selNames []string
}

func computeRecognition(reg corpus.Register, cfg selectors.Config) *recognitionData {
	g := corpus.Generate(reg, Seed)
	texts, labels := g.EvalSentences()
	d := &recognitionData{
		texts:    texts,
		truth:    make([]bool, len(labels)),
		selNames: []string{"Keyword", "Comparative", "Imperative", "Subject", "Purpose"},
	}
	for i, l := range labels {
		d.truth[i] = l.Advising
	}
	rec := selectors.New(cfg)
	// annotate every sentence once; all methods share the annotations
	// (selector 1 reuses the stems, selector 5 the cached purpose clauses)
	anns := nlp.AnnotateAll(texts)
	for k := 1; k <= 5; k++ {
		pred := make([]bool, len(texts))
		for i := range texts {
			pred[i] = rec.SelectorAnnotated(k, anns[i])
		}
		d.perSel[k-1] = pred
	}
	d.kwAll = make([]bool, len(texts))
	for _, i := range baselines.KeywordSearch(texts, cfg.AllKeywords()) {
		d.kwAll[i] = true
	}
	return d
}

// union ORs the selector predictions whose (0-based) indices are in use.
func (d *recognitionData) union(use []int) []bool {
	out := make([]bool, len(d.texts))
	for _, k := range use {
		for i, p := range d.perSel[k] {
			if p {
				out[i] = true
			}
		}
	}
	return out
}

// Table8 evaluates advising-sentence recognition on a guide's labeled
// evaluation subset: each selector alone, the KeywordAll baseline, and the
// full Egeria assembly (the union of the five selectors). cfg lets the
// caller run the Xeon-tuned variant.
func Table8(reg corpus.Register, cfg selectors.Config) []Table8Row {
	d := computeRecognition(reg, cfg)
	var rows []Table8Row
	for k := 0; k < 5; k++ {
		rows = append(rows, scoreRow(d.selNames[k], d.perSel[k], d.truth))
	}
	rows = append(rows, scoreRow("KeywordAll", d.kwAll, d.truth))
	rows = append(rows, scoreRow("Egeria", d.union([]int{0, 1, 2, 3, 4}), d.truth))
	return rows
}

// Table8WithSummarizer extends Table 8 with the document-summarization
// baseline the paper argues against (§3.1/§5): TextRank selecting as many
// sentences as Egeria does. Summarization finds the most *informative*
// sentences, which are frequently not *advising* sentences — this row makes
// that argument quantitative.
func Table8WithSummarizer(reg corpus.Register, cfg selectors.Config) []Table8Row {
	d := computeRecognition(reg, cfg)
	rows := Table8(reg, cfg)
	egeriaCount := 0
	for _, p := range d.union([]int{0, 1, 2, 3, 4}) {
		if p {
			egeriaCount++
		}
	}
	sel := summarize.Select(d.texts, egeriaCount)
	rows = append(rows, scoreRow("TextRank (same budget)", sel, d.truth))
	return rows
}

// Table8LeaveOneOut measures Egeria with each selector removed — the
// multi-layer ablation DESIGN.md calls out: how much each layer contributes
// to the assembly's F-measure.
func Table8LeaveOneOut(reg corpus.Register, cfg selectors.Config) []Table8Row {
	d := computeRecognition(reg, cfg)
	full := scoreRow("Egeria (all 5)", d.union([]int{0, 1, 2, 3, 4}), d.truth)
	rows := []Table8Row{full}
	for drop := 0; drop < 5; drop++ {
		var use []int
		for k := 0; k < 5; k++ {
			if k != drop {
				use = append(use, k)
			}
		}
		rows = append(rows, scoreRow("without "+d.selNames[drop], d.union(use), d.truth))
	}
	return rows
}

func scoreRow(name string, pred, truth []bool) Table8Row {
	sel, correct := 0, 0
	for i := range pred {
		if pred[i] {
			sel++
			if truth[i] {
				correct++
			}
		}
	}
	return Table8Row{Method: name, Selected: sel, Correct: correct, PRF: eval.Score(pred, truth)}
}

// FormatTable8 renders one guide's Table 8 block.
func FormatTable8(reg corpus.Register, rows []Table8Row) string {
	t := &eval.Table{Header: []string{"Method", "Sel.Sents", "Correct", "P", "R", "F"}}
	for _, r := range rows {
		t.AddRow(r.Method, fmt.Sprint(r.Selected), fmt.Sprint(r.Correct),
			eval.F3(r.PRF.Precision), eval.F3(r.PRF.Recall), eval.F3(r.PRF.F))
	}
	return fmt.Sprintf("Table 8 (%s): Advising Sentence Recognition\n%s", reg, t.String())
}

// --- category attribution ------------------------------------------------

// AttributionRow reports, for one ground-truth category, how many of its
// sentences each selector catches — the empirical mapping between the
// paper's Table 1 categories and its five selectors.
type AttributionRow struct {
	Category   corpus.Category
	Total      int
	BySelector [5]int // caught by selector k (1-based k-1)
	Missed     int    // caught by no selector
}

// CategoryAttribution computes the category-by-selector catch matrix over a
// guide's evaluation subset.
func CategoryAttribution(reg corpus.Register, cfg selectors.Config) []AttributionRow {
	g := corpus.Generate(reg, Seed)
	texts, labels := g.EvalSentences()
	rec := selectors.New(cfg)
	rowFor := map[corpus.Category]*AttributionRow{}
	order := []corpus.Category{
		corpus.CatKeyword, corpus.CatComparative, corpus.CatPassive,
		corpus.CatImperative, corpus.CatSubject, corpus.CatPurpose,
		corpus.CatHard,
	}
	for _, c := range order {
		rowFor[c] = &AttributionRow{Category: c}
	}
	for i, l := range labels {
		if !l.Advising {
			continue
		}
		row, ok := rowFor[l.Category]
		if !ok {
			continue
		}
		row.Total++
		ann := nlp.Annotate(texts[i])
		any := false
		for k := 1; k <= 5; k++ {
			if rec.SelectorAnnotated(k, ann) {
				row.BySelector[k-1]++
				any = true
			}
		}
		if !any {
			row.Missed++
		}
	}
	out := make([]AttributionRow, 0, len(order))
	for _, c := range order {
		out = append(out, *rowFor[c])
	}
	return out
}

// categoryName names a corpus category like the paper's Table 1.
func categoryName(c corpus.Category) string {
	switch c {
	case corpus.CatKeyword:
		return "I keywords"
	case corpus.CatComparative:
		return "II comparative"
	case corpus.CatPassive:
		return "III passive"
	case corpus.CatImperative:
		return "IV imperative"
	case corpus.CatSubject:
		return "V subject"
	case corpus.CatPurpose:
		return "VI purpose"
	case corpus.CatHard:
		return "hard (no pattern)"
	}
	return "other"
}

// FormatAttribution renders the catch matrix.
func FormatAttribution(reg corpus.Register, rows []AttributionRow) string {
	t := &eval.Table{Header: []string{"Category", "Total", "S1", "S2", "S3", "S4", "S5", "Missed"}}
	for _, r := range rows {
		t.AddRow(categoryName(r.Category), fmt.Sprint(r.Total),
			fmt.Sprint(r.BySelector[0]), fmt.Sprint(r.BySelector[1]),
			fmt.Sprint(r.BySelector[2]), fmt.Sprint(r.BySelector[3]),
			fmt.Sprint(r.BySelector[4]), fmt.Sprint(r.Missed))
	}
	return fmt.Sprintf("Category-by-selector attribution (%s):\n%s", reg, t.String())
}

// --- Fleiss' kappa -------------------------------------------------------

// Kappas reproduces the rater-agreement statistics (§4.2/§4.3): simulated
// three-expert labels over each guide's evaluation subset.
func Kappas() map[string]float64 {
	out := map[string]float64{}
	for _, reg := range []corpus.Register{corpus.CUDA, corpus.OpenCL, corpus.XeonPhi} {
		g := corpus.Generate(reg, Seed)
		_, labels := g.EvalSentences()
		raters := corpus.SimulateRaters(labels, 3, 42)
		out[reg.String()] = eval.FleissKappaBinary(raters)
	}
	return out
}

// --- Extension ablations -------------------------------------------------

// ThresholdPoint is one point of the similarity-threshold sweep.
type ThresholdPoint struct {
	Threshold float64
	MacroP    float64
	MacroR    float64
	MacroF    float64
}

// ThresholdSweep sweeps the Stage-II similarity threshold around the
// paper's 0.15 default and reports macro-averaged P/R/F over the six
// queries — the design-choice ablation DESIGN.md calls out.
func ThresholdSweep(g *corpus.Guide, adv *core.Advisor, thresholds []float64) []ThresholdPoint {
	queries := corpus.CUDAQueries()
	var out []ThresholdPoint
	for _, th := range thresholds {
		var sp, sr, sf float64
		for _, q := range queries {
			truth := g.GroundTruth(q)
			var idx []int
			for _, a := range adv.Retrieve(context.Background(), nlp.QueryTerms(q.Text), th) {
				idx = append(idx, a.Sentence.Index)
			}
			s := eval.ScoreSets(idx, truth)
			sp += s.Precision
			sr += s.Recall
			sf += s.F
		}
		n := float64(len(queries))
		out = append(out, ThresholdPoint{Threshold: th, MacroP: sp / n, MacroR: sr / n, MacroF: sf / n})
	}
	return out
}

// FormatThresholdSweep renders the sweep.
func FormatThresholdSweep(points []ThresholdPoint) string {
	t := &eval.Table{Header: []string{"Threshold", "macro-P", "macro-R", "macro-F"}}
	for _, p := range points {
		t.AddRow(eval.F2(p.Threshold), eval.F3(p.MacroP), eval.F3(p.MacroR), eval.F3(p.MacroF))
	}
	return "Ablation: Stage-II similarity threshold sweep (paper default 0.15)\n" + t.String()
}
