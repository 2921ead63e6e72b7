package textproc

import "strings"

// stopwordsRaw is the English stopword list (NLTK's list plus a few tokens
// that behave like stopwords in programming guides, e.g. "e.g", "i.e").
const stopwordsRaw = `
i me my myself we our ours ourselves you your yours yourself yourselves
he him his himself she her hers herself it its itself they them their
theirs themselves what which who whom this that these those am is are
was were be been being have has had having do does did doing a an the
and but if or because as until while of at by for with about against
between into through during before after above below to from up down in
out on off over under again further then once here there when where why
how all any both each few more most other some such no nor not only own
same so than too very s t can will just don should now d ll m o re ve
y ain aren couldn didn doesn hadn hasn haven isn ma mightn mustn needn
shan shouldn wasn weren won wouldn e.g i.e etc vs
`

var stopwordSet = buildLexicon(stopwordsRaw)

// IsStopword reports whether w is an English stopword. Matching is
// case-insensitive.
func IsStopword(w string) bool {
	return stopwordSet[strings.ToLower(w)]
}

// NormalizeTerms produces the canonical term sequence used by the retrieval
// layer: tokenize, lowercase, drop stopwords and punctuation, Porter-stem.
// It is one pass of the tokenizer's scanner that stems each word through
// the memo as it is cut, so it builds no token slice; the result is the
// only allocation for up to 128 terms.
func NormalizeTerms(text string) []string {
	var buf [128]string
	terms := buf[:0]
	sc := scanner{text: text}
	for {
		start, end, word, ok := sc.next()
		if !ok {
			break
		}
		if word { // punctuation tokens are never terms
			terms = appendTerm(terms, text[start:end])
		}
	}
	return append(make([]string, 0, len(terms)), terms...)
}

// NormalizeWords is NormalizeTerms over an already-tokenized sentence — the
// path used when an upstream layer (the dependency parser, the annotation
// pipeline) has tokenized the text and the term sequence must be bit-exact
// with NormalizeTerms on the original string. Like NormalizeTerms, its
// result is its one allocation (for up to 128 terms), sized to the terms
// alone: an advisor keeps it for the sentence's lifetime.
func NormalizeWords(words []string) []string {
	var buf [128]string
	terms := buf[:0]
	for _, w := range words {
		if !IsPunct(w) {
			terms = appendTerm(terms, w)
		}
	}
	return append(make([]string, 0, len(terms)), terms...)
}

// appendTerm appends the retrieval term of the word w to terms: its stem,
// or nothing for a stopword.
func appendTerm(terms []string, w string) []string {
	if e := memoize(w); e != nil {
		if !e.stop {
			terms = append(terms, e.stem)
		}
		return terms
	}
	if IsStopword(w) {
		return terms
	}
	return append(terms, Stem(w))
}
