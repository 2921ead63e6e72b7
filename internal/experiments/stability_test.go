package experiments

import (
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/nlp"
	"repro/internal/selectors"
	"repro/internal/vsm"
)

// recognitionAtSeed reruns the Table 8 comparison on a fresh corpus seed.
func recognitionAtSeed(reg corpus.Register, seed int64) (egeria, kwAll eval.PRF) {
	g := corpus.Generate(reg, seed)
	texts, labels := g.EvalSentences()
	truth := make([]bool, len(labels))
	for i, l := range labels {
		truth[i] = l.Advising
	}
	rec := selectors.Default()
	pred := make([]bool, len(texts))
	for i, s := range texts {
		pred[i] = rec.ClassifyAnnotated(nlp.Annotate(s)).Advising
	}
	ka := make([]bool, len(texts))
	for _, i := range baselines.KeywordSearch(texts, rec.Config().AllKeywords()) {
		ka[i] = true
	}
	return eval.Score(pred, truth), eval.Score(ka, truth)
}

// TestRecognitionShapeStableAcrossSeeds: the paper-shape conclusions must
// hold for corpora the experiments were never tuned against.
func TestRecognitionShapeStableAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep is slow")
	}
	for _, seed := range []int64{2, 3, 4} {
		egeria, kwAll := recognitionAtSeed(corpus.CUDA, seed)
		if egeria.F <= kwAll.F {
			t.Errorf("seed %d: Egeria F %.3f <= KeywordAll %.3f", seed, egeria.F, kwAll.F)
		}
		if egeria.Precision <= kwAll.Precision {
			t.Errorf("seed %d: Egeria P %.3f <= KeywordAll %.3f", seed, egeria.Precision, kwAll.Precision)
		}
		if egeria.F < 0.7 {
			t.Errorf("seed %d: Egeria F %.3f below the paper band", seed, egeria.F)
		}
	}
}

// TestAnswerQualityShapeStableAcrossSeeds: Egeria must beat full-doc on
// answer F for most queries regardless of the seed.
func TestAnswerQualityShapeStableAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep is slow")
	}
	for _, seed := range []int64{2, 3} {
		g := corpus.Generate(corpus.CUDA, seed)
		adv := core.New().BuildFromSentences(g.Doc, g.Sentences)
		full := vsm.Build(g.Texts())
		wins := 0
		for _, q := range corpus.CUDAQueries() {
			truth := g.GroundTruth(q)
			var egeriaIdx []int
			for _, a := range adv.Query(q.Text) {
				egeriaIdx = append(egeriaIdx, a.Sentence.Index)
			}
			fullIdx := baselines.FullDocQuery(full, q.Text, 0.15)
			if eval.ScoreSets(egeriaIdx, truth).F > eval.ScoreSets(fullIdx, truth).F {
				wins++
			}
		}
		if wins < 5 {
			t.Errorf("seed %d: Egeria beats full-doc on only %d/6 queries", seed, wins)
		}
	}
}

// TestCompressionStableAcrossSeeds: the Table 7 ratios stay in the paper's
// band for unseen seeds.
func TestCompressionStableAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep is slow")
	}
	for _, seed := range []int64{2, 5} {
		g := corpus.Generate(corpus.XeonPhi, seed)
		adv := core.New().BuildFromSentences(g.Doc, g.Sentences)
		r := adv.CompressionRatio()
		if r < 3 || r > 10 {
			t.Errorf("seed %d: ratio %.1f outside [3, 10]", seed, r)
		}
	}
}
