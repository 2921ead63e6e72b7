package selectors

import (
	"strings"
	"time"

	"repro/internal/depparse"
	"repro/internal/nlp"
	"repro/internal/obs"
	"repro/internal/postag"
	"repro/internal/textproc"
)

// Stage-I observability: how many sentences each selector accepted and how
// long classification takes (one observation per sentence classified),
// reported into the default metrics registry (surfaced on /metricz as
// selectors_*).
var (
	classifyHist = obs.Default().Histogram("selectors_classify_micros")
	selectorHits = func() (hits [NumSelectors + 1]*obs.Counter) {
		for id := None; id <= Purpose; id++ {
			hits[id] = obs.Default().Counter("selectors_hits_" + id.MetricName())
		}
		return hits
	}()
)

// SelectorID identifies one of the five selectors.
type SelectorID int

// Selector identifiers; None means no selector accepted the sentence.
const (
	None SelectorID = iota
	Keyword
	Comparative // selector 2 also covers passive category III
	Imperative
	Subject
	Purpose
	NumSelectors = 5
)

// MetricName names the selector as a metric-safe slug ("keyword",
// "comparative", ..., "none").
func (s SelectorID) MetricName() string {
	switch s {
	case Keyword:
		return "keyword"
	case Comparative:
		return "comparative"
	case Imperative:
		return "imperative"
	case Subject:
		return "subject"
	case Purpose:
		return "purpose"
	}
	return "none"
}

// String names the selector as the paper does.
func (s SelectorID) String() string {
	switch s {
	case Keyword:
		return "keyword"
	case Comparative:
		return "comparative/passive (xcomp)"
	case Imperative:
		return "imperative"
	case Subject:
		return "subject"
	case Purpose:
		return "purpose"
	}
	return "none"
}

// Result reports the classification of one sentence.
type Result struct {
	Advising bool
	Selector SelectorID // the first selector that accepted the sentence
}

// Recognizer classifies sentences as advising / non-advising. It is
// immutable after construction and safe for concurrent use.
type Recognizer struct {
	cfg Config

	flagging        []textproc.Phrase
	xcompLemmas     map[string]bool
	imperativeLems  map[string]bool
	subjectLemmas   map[string]bool
	predicateLemmas map[string]bool
}

// New compiles a Recognizer from cfg: flagging phrases are stemmed, and the
// dependency-level keyword sets are reduced to lemmas so that any inflection
// matches ("recommended" matches "recommend", "recommends", ...).
func New(cfg Config) *Recognizer {
	r := &Recognizer{
		cfg:             cfg,
		flagging:        textproc.StemPhrases(cfg.FlaggingWords),
		xcompLemmas:     map[string]bool{},
		imperativeLems:  map[string]bool{},
		subjectLemmas:   map[string]bool{},
		predicateLemmas: map[string]bool{},
	}
	for _, w := range cfg.XcompGovernors {
		r.xcompLemmas[textproc.Lemma(w, textproc.VerbClass)] = true
		r.xcompLemmas[textproc.Lemma(w, textproc.AdjClass)] = true
		r.xcompLemmas[strings.ToLower(w)] = true
	}
	for _, w := range cfg.ImperativeWords {
		r.imperativeLems[textproc.Lemma(w, textproc.VerbClass)] = true
	}
	for _, w := range cfg.KeySubjects {
		r.subjectLemmas[textproc.Lemma(w, textproc.NounClass)] = true
	}
	for _, w := range cfg.KeyPredicates {
		r.predicateLemmas[textproc.Lemma(w, textproc.VerbClass)] = true
	}
	return r
}

// Default returns a Recognizer over DefaultConfig.
func Default() *Recognizer { return New(DefaultConfig()) }

// Config returns the configuration the recognizer was compiled from.
func (r *Recognizer) Config() Config { return r.cfg }

// ClassifyAnnotated runs the five selectors in order over a shared
// annotation and reports the first that accepts the sentence. Every layer
// it needs (stems, tags, tree, purpose clauses) is read from the
// annotation, so nothing is recomputed.
func (r *Recognizer) ClassifyAnnotated(a *nlp.Annotation) Result {
	start := time.Now()
	var res Result
	for k := Keyword; k <= Purpose; k++ {
		if r.match(k, a) >= 0 {
			res = Result{Advising: true, Selector: k}
			break
		}
	}
	classifyHist.ObserveDuration(time.Since(start))
	selectorHits[res.Selector].Inc()
	return res
}

// SelectorAnnotated reports whether the k-th selector (1-based) alone
// accepts the annotated sentence: the per-selector rows of Table 8.
func (r *Recognizer) SelectorAnnotated(k int, a *nlp.Annotation) bool {
	return r.match(SelectorID(k), a) >= 0
}

// match is the one implementation of Rules 1-5. It returns where rule k
// holds in the sentence, or -1 if it does not:
//
//	Rule 1: the sentence contains a FLAGGING WORDS phrase, matched as
//	        consecutive stems; returns the phrase's index.
//	Rule 2: it contains xcomp(governor, *) with the governor in XCOMP
//	        GOVERNORS, covering comparative (category II) and passive
//	        (category III) sentences; returns the relation's index.
//	Rule 3: the root verb, or a clause head coordinated with it ("..., so
//	        avoid ..." is the paper's own category-IV example), is an
//	        IMPERATIVE WORD with no subject; returns the verb's word index.
//	Rule 4: it contains nsubj(*, n) with lemma(n) in KEY SUBJECTS; returns
//	        n.
//	Rule 5: it contains an AM-PNC purpose clause whose predicate lemma is
//	        in KEY PREDICATES; returns the clause's index in a.Purposes().
func (r *Recognizer) match(k SelectorID, a *nlp.Annotation) int {
	tree := a.Tree
	switch k {
	case Keyword:
		return textproc.FindPhrase(a.Stems, r.flagging)
	case Comparative:
		for i, rel := range tree.Relations {
			if rel.Type != depparse.Xcomp || rel.Governor < 0 {
				continue
			}
			if r.xcompLemmas[tree.Lemma(rel.Governor)] || r.xcompLemmas[strings.ToLower(tree.Words[rel.Governor])] {
				return i
			}
		}
	case Imperative:
		// in ascending word order, so the first such verb is returned
		for v, tag := range tree.Tags {
			if tag != postag.VB && tag != postag.VBP || !tree.ConjOfRoot(v) {
				continue
			}
			if r.imperativeLems[tree.Lemma(v)] && !tree.HasSubject(v) {
				return v
			}
		}
	case Subject:
		for _, rel := range tree.Relations {
			if rel.Type == depparse.Nsubj && r.subjectLemmas[textproc.Lemma(tree.Words[rel.Dependent], textproc.NounClass)] {
				return rel.Dependent
			}
		}
	case Purpose:
		for i, p := range a.Purposes() {
			if r.predicateLemmas[textproc.Lemma(tree.Words[p.Predicate], textproc.VerbClass)] {
				return i
			}
		}
	}
	return -1
}
