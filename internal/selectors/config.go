// Package selectors implements Egeria's Stage-I multi-layered advising
// sentence recognition: five selectors that combine keyword matching,
// syntactic dependency analysis and semantic role labeling with the
// HPC-domain keyword sets of the paper's Table 2. A sentence is an advising
// sentence as soon as any selector accepts it.
package selectors

// Config carries the keyword sets steering the five selectors (paper
// Table 2). The artifact appendix notes these are user-extensible; the
// zero-value Config is not usable — start from DefaultConfig.
type Config struct {
	// FlaggingWords are matched after stemming anywhere in the sentence
	// (multi-word phrases match as consecutive stemmed tokens). Selector 1.
	FlaggingWords []string
	// XcompGovernors are the verbs/adjectives whose open clausal complement
	// marks categories II and III. Selector 2.
	XcompGovernors []string
	// ImperativeWords are the root verbs that mark advising imperatives
	// (category IV). Selector 3.
	ImperativeWords []string
	// KeySubjects are the nominal subjects of category V. Selector 4.
	KeySubjects []string
	// KeyPredicates are the purpose-clause predicates of category VI.
	// Selector 5.
	KeyPredicates []string
}

// DefaultConfig returns the exact keyword sets of the paper's Table 2.
func DefaultConfig() Config {
	return Config{
		FlaggingWords: []string{
			"better", "best performance", "higher performance",
			"maximum performance", "peak performance",
			"improve the performance", "higher impact", "more appropriate",
			"should", "high bandwidth", "benefit", "high throughput",
			"prefer", "effective way", "one way to", "the key to",
			"contribute to", "can be used to", "can lead to", "reduce",
			"can help", "can be important", "can be useful", "is important",
			"help avoid", "can avoid", "instead", "is desirable",
			"good choice", "ideal choice", "good idea", "good start",
			"encouraged",
		},
		XcompGovernors: []string{
			"prefer", "best", "faster", "better", "efficient", "beneficial",
			"appropriate", "recommended", "encouraged", "leveraged",
			"important", "useful", "required", "controlled",
		},
		ImperativeWords: []string{
			"use", "avoid", "create", "make", "map", "align", "add",
			"change", "ensure", "call", "unroll", "move", "select",
			"schedule", "switch", "transform", "pack",
		},
		KeySubjects: []string{
			"programmer", "developer", "application", "solution",
			"algorithm", "optimization", "guideline", "technique",
		},
		KeyPredicates: []string{
			"maximize", "minimize", "recommend", "accomplish", "achieve",
			"avoid",
		},
	}
}

// XeonTunedConfig returns DefaultConfig extended with the three keywords the
// paper adds when tuning for the Xeon Phi guide (§4.3): 'have to be' joins
// FLAGGING WORDS, 'user' and 'one' join KEY SUBJECTS. With this tuning the
// paper reports recall improving to 0.892 at 0.877 precision.
func XeonTunedConfig() Config {
	cfg := DefaultConfig()
	cfg.FlaggingWords = append(cfg.FlaggingWords, "have to be")
	cfg.KeySubjects = append(cfg.KeySubjects, "user", "one")
	return cfg
}

// AllKeywords returns the union of every keyword in the configuration —
// the KeywordAll baseline of the paper's Table 8.
func (c Config) AllKeywords() []string {
	var out []string
	out = append(out, c.FlaggingWords...)
	out = append(out, c.XcompGovernors...)
	out = append(out, c.ImperativeWords...)
	out = append(out, c.KeySubjects...)
	out = append(out, c.KeyPredicates...)
	return out
}
