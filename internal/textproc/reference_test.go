package textproc

import (
	"strings"
	"unicode"
)

// The reference normalizer: the two-step path this package shipped before
// the shared scanner and the stem memo, kept so the fast path can be held to
// it term for term. It tokenizes into a slice (lowercasing every word to
// look for a clitic), then filters and Porter-stems each word from scratch.

func refTokenize(text string) []Token {
	var tokens []Token
	i := 0
	n := len(text)
	for i < n {
		r := rune(text[i])
		switch {
		case r < 128 && unicode.IsSpace(r):
			i++
		case isWordByte(text[i]):
			j := i
			for j < n && isWordContinuation(text, j) {
				j++
			}
			tokens = refAppendWordSplittingClitics(tokens, text[i:j], i)
			i = j
		default:
			j := i + 1
			for j < n && text[j] == text[i] && isGroupablePunct(text[i]) {
				j++
			}
			tokens = append(tokens, Token{Text: text[i:j], Start: i, End: j})
			i = j
		}
	}
	return tokens
}

func refAppendWordSplittingClitics(tokens []Token, word string, off int) []Token {
	lower := strings.ToLower(word)
	for _, suf := range cliticSuffixes {
		if len(lower) > len(suf) && strings.HasSuffix(lower, suf) {
			cut := len(word) - len(suf)
			tokens = append(tokens, Token{Text: word[:cut], Start: off, End: off + cut})
			tokens = append(tokens, Token{Text: word[cut:], Start: off + cut, End: off + len(word)})
			return tokens
		}
	}
	return append(tokens, Token{Text: word, Start: off, End: off + len(word)})
}

func refWords(text string) []string {
	toks := refTokenize(text)
	if len(toks) == 0 {
		return nil
	}
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = t.Text
	}
	return out
}

func refStem(word string) string {
	w := []byte(strings.ToLower(word))
	if len(w) <= 2 {
		return string(w)
	}
	for _, b := range w {
		if b < 'a' || b > 'z' {
			return string(w)
		}
	}
	w = step1a(w)
	w = step1b(w)
	w = step1c(w)
	w = step2(w)
	w = step3(w)
	w = step4(w)
	w = step5a(w)
	w = step5b(w)
	return string(w)
}

func refNormalizeWords(words []string) []string {
	out := make([]string, 0, len(words))
	for _, w := range words {
		if stopwordSet[strings.ToLower(w)] || IsPunct(w) {
			continue
		}
		out = append(out, refStem(w))
	}
	return out
}

func refNormalizeTerms(text string) []string {
	return refNormalizeWords(refWords(text))
}
