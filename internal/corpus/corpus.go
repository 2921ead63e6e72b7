// Package corpus synthesizes the evaluation corpora of the Egeria
// reproduction. The paper evaluates on three vendor documents (the NVIDIA
// CUDA C Programming Guide, the AMD OpenCL Optimization Guide and the Intel
// Xeon Phi Best Practice Guide) with ground-truth advising labels produced
// by three human experts. Neither the documents nor the labels are available
// offline, so this package generates synthetic guides in the same registers:
//
//   - sentences are instantiated from category-tagged templates written in
//     the style of each guide (every example sentence quoted in the paper is
//     included verbatim as a "nugget"),
//   - each sentence carries its ground-truth label by construction
//     (the template's advising category, or non-advising),
//   - guide sizes mirror the paper's Table 7 (2140 / 1944 / 558 sentences),
//   - a designated "performance guidelines" chapter provides the labeled
//     evaluation subset of Table 8,
//   - advising "nuggets" carry subtopic tags that define the relevance
//     ground truth for the Table 6 query workloads,
//   - templates include hard advising sentences (no selector pattern) and
//     keyword traps (non-advising sentences containing keywords) so that
//     precision/recall land in realistic ranges rather than at 1.0.
//
// Generation is deterministic for a given (register, seed).
package corpus

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/htmldoc"
)

// Register selects the guide style to generate.
type Register int

// The three registers of the paper's evaluation.
const (
	CUDA Register = iota
	OpenCL
	XeonPhi
)

// String names the register like the paper's tables do.
func (r Register) String() string {
	switch r {
	case CUDA:
		return "CUDA"
	case OpenCL:
		return "OpenCL"
	case XeonPhi:
		return "Xeon"
	}
	return "unknown"
}

// ParseRegister maps a guide name onto its register, ignoring case: cuda,
// opencl, and xeon or xeonphi. strings.ToLower(r.String()) is the canonical
// name of a register.
func ParseRegister(name string) (Register, error) {
	switch strings.ToLower(name) {
	case "cuda":
		return CUDA, nil
	case "opencl":
		return OpenCL, nil
	case "xeon", "xeonphi":
		return XeonPhi, nil
	}
	return 0, fmt.Errorf("unknown corpus %q (want cuda, opencl or xeon)", name)
}

// Category is the paper's Table 1 advising sentence category (1-6);
// 0 marks non-advising sentences.
type Category int

// Sentence categories.
const (
	NonAdvising    Category = iota // 0
	CatKeyword                     // 1 — Table 1 category I
	CatComparative                 // 2
	CatPassive                     // 3
	CatImperative                  // 4
	CatSubject                     // 5
	CatPurpose                     // 6
	// CatHard marks advising sentences deliberately outside every selector
	// pattern (the recall ceiling of the multi-layered design).
	CatHard // 7
)

// Label is the ground-truth annotation of one generated sentence.
type Label struct {
	Advising  bool
	Category  Category
	Topic     string // coarse topic ("divergence", "coalescing", ...)
	Subtopic  string // nugget tag targeted by Table 6 queries ("" for bulk)
	Ambiguous bool   // simulated raters disagree more often on these
}

// Guide is a generated document plus per-sentence ground truth.
type Guide struct {
	Register  Register
	Doc       *htmldoc.Document
	Sentences []htmldoc.Sentence // Doc.Sentences(), cached
	Labels    []Label            // aligned with Sentences
	// EvalStart/EvalEnd delimit (half-open) the labeled evaluation subset
	// of Table 8: the performance-guidelines chapter for CUDA/OpenCL, the
	// whole document for Xeon.
	EvalStart, EvalEnd int
}

// AdvisingCount returns the number of ground-truth advising sentences.
func (g *Guide) AdvisingCount() int {
	n := 0
	for _, l := range g.Labels {
		if l.Advising {
			n++
		}
	}
	return n
}

// EvalSentences returns the evaluation subset's sentence texts and labels.
func (g *Guide) EvalSentences() ([]string, []Label) {
	texts := make([]string, 0, g.EvalEnd-g.EvalStart)
	labels := make([]Label, 0, g.EvalEnd-g.EvalStart)
	for i := g.EvalStart; i < g.EvalEnd; i++ {
		texts = append(texts, g.Sentences[i].Text)
		labels = append(labels, g.Labels[i])
	}
	return texts, labels
}

// Texts returns all sentence texts of the guide.
func (g *Guide) Texts() []string {
	out := make([]string, len(g.Sentences))
	for i, s := range g.Sentences {
		out[i] = s.Text
	}
	return out
}

// SectionOf returns the section path string for sentence i.
func (g *Guide) SectionOf(i int) string {
	if i < 0 || i >= len(g.Sentences) {
		return ""
	}
	return g.Doc.Sections[g.Sentences[i].Section].Path()
}

// guideSpec fixes the per-register generation parameters, chosen so the
// generated corpora mirror the paper's Table 7 and Table 8 statistics.
type guideSpec struct {
	totalSentences int     // Table 7 column "sentences"
	advisingFrac   float64 // fraction of advising sentences overall
	hardFrac       float64 // fraction of advising sentences with no pattern
	trapFrac       float64 // fraction of non-advising that carry keyword traps
	evalSentences  int     // Table 8 labeled subset size
	evalAdvising   int     // Table 8 ground-truth advising count in subset
	title          string
}

func specFor(reg Register) guideSpec {
	switch reg {
	case CUDA:
		return guideSpec{
			totalSentences: 2140, advisingFrac: 0.145, hardFrac: 0.06,
			trapFrac: 0.10, evalSentences: 177, evalAdvising: 52,
			title: "CUDA C Programming Guide (synthetic register)",
		}
	case OpenCL:
		return guideSpec{
			totalSentences: 1944, advisingFrac: 0.235, hardFrac: 0.17,
			trapFrac: 0.12, evalSentences: 556, evalAdvising: 128,
			title: "OpenCL Optimization Guide (synthetic register)",
		}
	default:
		return guideSpec{
			totalSentences: 558, advisingFrac: 0.215, hardFrac: 0.26,
			trapFrac: 0.13, evalSentences: 558, evalAdvising: 120,
			title: "Xeon Phi Best Practice Guide (synthetic register)",
		}
	}
}

// Generate produces the full-size synthetic guide for a register, sized per
// the paper's Table 7. Deterministic in (reg, seed).
func Generate(reg Register, seed int64) *Guide {
	return generate(reg, specFor(reg), seed)
}

// GenerateSized produces a custom-size guide (used by scaling benchmarks).
func GenerateSized(reg Register, nSentences int, advisingFrac float64, seed int64) *Guide {
	spec := specFor(reg)
	spec.totalSentences = nSentences
	spec.advisingFrac = advisingFrac
	spec.evalSentences = nSentences
	spec.evalAdvising = int(float64(nSentences) * advisingFrac)
	return generate(reg, spec, seed)
}

// fill substitutes {slot} placeholders in a template from the topic pack's
// slot map, choosing deterministically via rng.
func fill(rng *rand.Rand, tmpl string, slots map[string][]string) string {
	var b strings.Builder
	for {
		i := strings.IndexByte(tmpl, '{')
		if i < 0 {
			b.WriteString(tmpl)
			break
		}
		j := strings.IndexByte(tmpl[i:], '}')
		if j < 0 {
			b.WriteString(tmpl)
			break
		}
		b.WriteString(tmpl[:i])
		key := tmpl[i+1 : i+j]
		choices := slots[key]
		if len(choices) == 0 {
			b.WriteString(fmt.Sprintf("{%s}", key))
		} else {
			b.WriteString(choices[rng.Intn(len(choices))])
		}
		tmpl = tmpl[i+j+1:]
	}
	return b.String()
}

// sentenceCase uppercases the first letter of s.
func sentenceCase(s string) string {
	if s == "" {
		return s
	}
	if s[0] >= 'a' && s[0] <= 'z' {
		return string(s[0]-'a'+'A') + s[1:]
	}
	return s
}
