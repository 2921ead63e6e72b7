package corpus

import (
	"math/rand"
	"testing"

	"repro/internal/nlp"
	"repro/internal/selectors"
)

// TestAdvisingTemplatesTriggerTheirCategory instantiates every advising
// template with every register's slot vocabulary and asserts the recognizer
// accepts nearly all instances — the generator's labels are only meaningful
// if the templates reliably exhibit their category's pattern.
func TestAdvisingTemplatesTriggerTheirCategory(t *testing.T) {
	rec := selectors.Default()
	for _, reg := range []Register{CUDA, OpenCL, XeonPhi} {
		slots := slotsFor(reg)
		rng := rand.New(rand.NewSource(99))
		total, accepted := 0, 0
		var misses []string
		for _, tmpl := range advisingBank {
			for trial := 0; trial < 3; trial++ {
				sentence := sentenceCase(fill(rng, tmpl.text, slots))
				total++
				if rec.ClassifyAnnotated(nlp.Annotate(sentence)).Advising {
					accepted++
				} else if len(misses) < 5 {
					misses = append(misses, sentence)
				}
			}
		}
		rate := float64(accepted) / float64(total)
		if rate < 0.93 {
			t.Errorf("%v: only %.0f%% of advising instances recognized; e.g. %q",
				reg, rate*100, misses)
		}
	}
}

// TestExplanatoryTemplatesStayClean instantiates every explanatory template
// and asserts the recognizer rejects nearly all instances (they must not
// leak keyword stems or selector patterns).
func TestExplanatoryTemplatesStayClean(t *testing.T) {
	rec := selectors.Default()
	for _, reg := range []Register{CUDA, OpenCL, XeonPhi} {
		slots := slotsFor(reg)
		rng := rand.New(rand.NewSource(99))
		total, flagged := 0, 0
		var hits []string
		for _, tmpl := range explanatoryBank {
			for trial := 0; trial < 3; trial++ {
				sentence := sentenceCase(fill(rng, tmpl.text, slots))
				total++
				if rec.ClassifyAnnotated(nlp.Annotate(sentence)).Advising {
					flagged++
					if len(hits) < 5 {
						hits = append(hits, sentence)
					}
				}
			}
		}
		rate := float64(flagged) / float64(total)
		if rate > 0.07 {
			t.Errorf("%v: %.0f%% of explanatory instances flagged as advising; e.g. %q",
				reg, rate*100, hits)
		}
	}
}

// TestHardTemplatesEvadeSelectors: the deliberate recall ceiling only works
// if the hard templates are genuinely invisible to the default selectors.
func TestHardTemplatesEvadeSelectors(t *testing.T) {
	rec := selectors.Default()
	for _, reg := range []Register{CUDA, OpenCL, XeonPhi} {
		slots := slotsFor(reg)
		rng := rand.New(rand.NewSource(99))
		pool := hardAdvisingBank
		if reg == XeonPhi {
			pool = append(append([]sentenceTemplate{}, hardAdvisingBank...), xeonTunableHard...)
		}
		total, flagged := 0, 0
		var hits []string
		for _, tmpl := range pool {
			for trial := 0; trial < 3; trial++ {
				sentence := sentenceCase(fill(rng, tmpl.text, slots))
				total++
				if rec.ClassifyAnnotated(nlp.Annotate(sentence)).Advising {
					flagged++
					if len(hits) < 5 {
						hits = append(hits, sentence)
					}
				}
			}
		}
		rate := float64(flagged) / float64(total)
		if rate > 0.10 {
			t.Errorf("%v: %.0f%% of hard instances recognized (should evade); e.g. %q",
				reg, rate*100, hits)
		}
	}
}

// TestLabelConsistency: structural invariants of every generated label.
func TestLabelConsistency(t *testing.T) {
	for _, reg := range []Register{CUDA, OpenCL, XeonPhi} {
		g := Generate(reg, 2)
		for i, l := range g.Labels {
			if l.Advising != (l.Category != NonAdvising) {
				t.Fatalf("%v sentence %d: advising=%v but category=%v", reg, i, l.Advising, l.Category)
			}
			if l.Category < NonAdvising || l.Category > CatHard {
				t.Fatalf("%v sentence %d: category %d out of range", reg, i, l.Category)
			}
			if l.Subtopic != "" && !l.Advising {
				t.Fatalf("%v sentence %d: non-advising sentence carries subtopic %q", reg, i, l.Subtopic)
			}
		}
		// eval range is within bounds and half-open
		if g.EvalStart < 0 || g.EvalEnd > len(g.Sentences) || g.EvalStart >= g.EvalEnd {
			t.Fatalf("%v: eval range [%d, %d) invalid", reg, g.EvalStart, g.EvalEnd)
		}
	}
}

// TestEgeriaTrapsActuallyTrap: templates marked egeriaTrap must be accepted
// by the recognizer (that is their role), plain traps should mostly not be.
func TestEgeriaTrapsActuallyTrap(t *testing.T) {
	rec := selectors.Default()
	slots := slotsFor(CUDA)
	rng := rand.New(rand.NewSource(99))
	for _, tmpl := range trapBank {
		hits := 0
		const trials = 4
		for trial := 0; trial < trials; trial++ {
			sentence := sentenceCase(fill(rng, tmpl.text, slots))
			if rec.ClassifyAnnotated(nlp.Annotate(sentence)).Advising {
				hits++
			}
		}
		if tmpl.egeriaTrap && hits == 0 {
			t.Errorf("egeria trap never fires: %q", tmpl.text)
		}
		if !tmpl.egeriaTrap && hits == trials {
			t.Errorf("plain trap always fools Egeria (should mostly fool keyword baselines only): %q", tmpl.text)
		}
	}
}
