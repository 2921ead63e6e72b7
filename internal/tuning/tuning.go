// Package tuning implements the keyword-tuning workflow behind the paper's
// §4.3: "A fine tuning of the list of keywords can further improve the
// performance. For example, given the Xeon guide, after we added one extra
// keyword into the FLAGGING WORDS list ('have to be') and two extra keywords
// into KEY SUBJECTS list ('user', 'one'), the recall is improved to 0.892
// with precision equaling 0.877."
//
// Given a small labeled sentence sample, the tuner mines candidate keywords
// from the false negatives of the current configuration (frequent stemmed
// n-grams for FLAGGING WORDS, subject lemmas for KEY SUBJECTS, imperative
// root lemmas for IMPERATIVE WORDS) and greedily accepts the candidates that
// raise F-measure on the sample, yielding an extended selectors.Config.
package tuning

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/eval"
	"repro/internal/nlp"
	"repro/internal/postag"
	"repro/internal/selectors"
	"repro/internal/textproc"
)

// Target names the keyword set a suggestion extends.
type Target string

// The tunable keyword sets.
const (
	FlaggingWords   Target = "FLAGGING WORDS"
	KeySubjects     Target = "KEY SUBJECTS"
	ImperativeWords Target = "IMPERATIVE WORDS"
)

// Suggestion is one accepted keyword with its measured effect.
type Suggestion struct {
	Target  Target
	Keyword string
	Before  eval.PRF // sample metrics before adding the keyword
	After   eval.PRF // sample metrics after adding it
}

// Options bounds the tuning search.
type Options struct {
	MaxSuggestions   int     // stop after this many accepted keywords (default 5)
	MinGainF         float64 // minimum F improvement to accept (default 0.005)
	MaxPrecisionLoss float64 // reject keywords costing more precision (default 0.05)
	MaxNgram         int     // longest flagging phrase to mine (default 3)
	MinSupport       int     // candidate must appear in >= this many FNs (default 2)
}

func (o *Options) fill() {
	if o.MaxSuggestions == 0 {
		o.MaxSuggestions = 5
	}
	if o.MinGainF == 0 {
		o.MinGainF = 0.005
	}
	if o.MaxPrecisionLoss == 0 {
		o.MaxPrecisionLoss = 0.05
	}
	if o.MaxNgram == 0 {
		o.MaxNgram = 3
	}
	if o.MinSupport == 0 {
		o.MinSupport = 2
	}
}

// Result is the outcome of a tuning run.
type Result struct {
	Config      selectors.Config // the extended configuration
	Suggestions []Suggestion
	Before      eval.PRF
	After       eval.PRF
}

// Tune extends cfg with keywords mined from the labeled sample.
// sentences[i] is labeled advising iff labels[i]. The sample is also the
// evaluation set for the greedy acceptance test, matching how the paper's
// authors tuned against their labeled chapters.
func Tune(cfg selectors.Config, sentences []string, labels []bool, opts Options) (*Result, error) {
	if len(sentences) != len(labels) {
		return nil, fmt.Errorf("tuning: %d sentences but %d labels", len(sentences), len(labels))
	}
	if len(sentences) == 0 {
		return nil, fmt.Errorf("tuning: empty sample")
	}
	opts.fill()

	// annotate once; configurations only change keyword sets, not parses,
	// so every trial configuration scores against the same annotations
	anns := nlp.AnnotateAll(sentences)

	res := &Result{Config: cfg}
	cur := cfg
	curScore := scoreConfig(cur, anns, labels)
	res.Before = curScore

	for len(res.Suggestions) < opts.MaxSuggestions {
		fns := falseNegatives(cur, anns, labels)
		if len(fns) == 0 {
			break
		}
		candidates := mineCandidates(cur, anns, fns, opts)
		if len(candidates) == 0 {
			break
		}
		var best *Suggestion
		var bestCfg selectors.Config
		for _, cand := range candidates {
			trial := apply(cur, cand)
			s := scoreConfig(trial, anns, labels)
			if s.F-curScore.F < opts.MinGainF {
				continue
			}
			if curScore.Precision-s.Precision > opts.MaxPrecisionLoss {
				continue
			}
			if best == nil || s.F > best.After.F {
				sg := Suggestion{Target: cand.target, Keyword: cand.keyword, Before: curScore, After: s}
				best = &sg
				bestCfg = trial
			}
		}
		if best == nil {
			break
		}
		res.Suggestions = append(res.Suggestions, *best)
		cur = bestCfg
		curScore = best.After
	}
	res.Config = cur
	res.After = curScore
	return res, nil
}

// candidate is one keyword under consideration.
type candidate struct {
	target  Target
	keyword string
	support int
}

func apply(cfg selectors.Config, c candidate) selectors.Config {
	out := cfg
	switch c.target {
	case FlaggingWords:
		out.FlaggingWords = append(append([]string{}, cfg.FlaggingWords...), c.keyword)
	case KeySubjects:
		out.KeySubjects = append(append([]string{}, cfg.KeySubjects...), c.keyword)
	case ImperativeWords:
		out.ImperativeWords = append(append([]string{}, cfg.ImperativeWords...), c.keyword)
	}
	return out
}

func scoreConfig(cfg selectors.Config, anns []*nlp.Annotation, labels []bool) eval.PRF {
	rec := selectors.New(cfg)
	pred := make([]bool, len(anns))
	for i, a := range anns {
		pred[i] = rec.ClassifyAnnotated(a).Advising
	}
	return eval.Score(pred, labels)
}

func falseNegatives(cfg selectors.Config, anns []*nlp.Annotation, labels []bool) []int {
	rec := selectors.New(cfg)
	var out []int
	for i, a := range anns {
		if labels[i] && !rec.ClassifyAnnotated(a).Advising {
			out = append(out, i)
		}
	}
	return out
}

// mineCandidates collects keyword candidates from the false-negative
// sentences: stemmed n-grams (flagging), subject lemmas (key subjects), and
// base-verb clause-head lemmas (imperative words).
func mineCandidates(cfg selectors.Config, anns []*nlp.Annotation, fns []int, opts Options) []candidate {
	ngramSupport := map[string]int{}
	subjSupport := map[string]int{}
	impSupport := map[string]int{}

	existingFlag := map[string]bool{}
	for _, k := range cfg.FlaggingWords {
		existingFlag[strings.Join(textproc.StemAll(textproc.Words(k)), " ")] = true
	}
	existingSubj := map[string]bool{}
	for _, k := range cfg.KeySubjects {
		existingSubj[textproc.Lemma(k, textproc.NounClass)] = true
	}
	existingImp := map[string]bool{}
	for _, k := range cfg.ImperativeWords {
		existingImp[textproc.Lemma(k, textproc.VerbClass)] = true
	}

	for _, i := range fns {
		ann := anns[i]
		tree := ann.Tree
		words := tree.Words
		stems := ann.Stems // shared with the classifier, not re-stemmed
		seen := map[string]bool{}
		for n := 1; n <= opts.MaxNgram; n++ {
			for j := 0; j+n <= len(stems); j++ {
				gram := stems[j : j+n]
				if !usefulNgram(words[j:j+n], tree.Tags[j:j+n]) {
					continue
				}
				key := strings.Join(gram, " ")
				if existingFlag[key] || seen[key] {
					continue
				}
				seen[key] = true
				ngramSupport[strings.Join(words[j:j+n], " ")]++
			}
		}
		for _, s := range tree.AllSubjects() {
			lemma := textproc.Lemma(tree.Words[s], textproc.NounClass)
			if !existingSubj[lemma] && lemma != "" {
				subjSupport[lemma]++
			}
		}
		if root := tree.RootIndex(); root >= 0 && tree.Tags[root].IsVerb() && !tree.HasSubject(root) {
			lemma := tree.Lemma(root)
			if !existingImp[lemma] {
				impSupport[lemma]++
			}
		}
	}

	var out []candidate
	for k, sup := range ngramSupport {
		if sup >= opts.MinSupport {
			out = append(out, candidate{target: FlaggingWords, keyword: strings.ToLower(k), support: sup})
		}
	}
	for k, sup := range subjSupport {
		if sup >= opts.MinSupport {
			out = append(out, candidate{target: KeySubjects, keyword: k, support: sup})
		}
	}
	for k, sup := range impSupport {
		if sup >= opts.MinSupport {
			out = append(out, candidate{target: ImperativeWords, keyword: k, support: sup})
		}
	}
	// deterministic order: by support desc, then keyword
	sort.Slice(out, func(a, b int) bool {
		if out[a].support != out[b].support {
			return out[a].support > out[b].support
		}
		if out[a].target != out[b].target {
			return out[a].target < out[b].target
		}
		return out[a].keyword < out[b].keyword
	})
	// cap the per-round trial budget
	if len(out) > 60 {
		out = out[:60]
	}
	return out
}

// usefulNgram filters n-gram candidates: no punctuation or numbers, no
// leading/trailing stopword for multi-word grams (single stopwords are
// allowed inside, so "have to be" survives), and at least one content word.
func usefulNgram(words []string, tags []postag.Tag) bool {
	content := false
	for i, w := range words {
		if textproc.IsPunct(w) || textproc.IsNumeric(w) {
			return false
		}
		if tags[i] == postag.NNP {
			return false // proper nouns / identifiers do not generalize
		}
		if !textproc.IsStopword(w) {
			content = true
		}
		_ = i
	}
	if len(words) > 1 {
		// multi-word phrases may consist of function words ("have to be"),
		// but single bare stopwords are never useful
		return true
	}
	return content
}

// FormatResult renders the tuning outcome for humans.
func FormatResult(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "before: %s\n", r.Before)
	for _, s := range r.Suggestions {
		fmt.Fprintf(&b, "  + %-18s %-20q  F %.3f -> %.3f (R %.3f -> %.3f)\n",
			s.Target, s.Keyword, s.Before.F, s.After.F, s.Before.Recall, s.After.Recall)
	}
	fmt.Fprintf(&b, "after:  %s\n", r.After)
	return b.String()
}
