// Package textproc provides the low-level text processing substrate used by
// every NLP layer of the Egeria reproduction: sentence segmentation, word
// tokenization, stemming (Porter), lemmatization, stopword filtering and
// normalization. All components are deterministic, allocation-conscious and
// safe for concurrent use: their one piece of mutable state, the stem memo,
// is lock-free and cannot change a result.
package textproc

import (
	"slices"
	"strings"
)

// Token is a single word-level token with its position in the source text.
type Token struct {
	Text  string // the token text as it appeared (case preserved)
	Start int    // byte offset of the first byte in the source
	End   int    // byte offset one past the last byte
}

// common contractions whose clitic should be split off, keyed by the
// lowercase suffix that follows the apostrophe.
var cliticSuffixes = []string{"n't", "'ll", "'re", "'ve", "'s", "'d", "'m"}

// Tokenize splits text into word tokens in the style of the Penn Treebank /
// NLTK word tokenizer: punctuation is split from words, contractions are
// split at the clitic boundary ("don't" -> "do", "n't"), hyphenated words and
// identifiers containing underscores or dots (e.g. "clWaitForEvents()",
// "maxrregcount", "3.14f") are kept intact as single tokens because HPC
// guides are full of them.
func Tokenize(text string) []Token {
	var tokens []Token
	sc := scanner{text: text}
	for {
		start, end, _, ok := sc.next()
		if !ok {
			return tokens
		}
		tokens = append(tokens, Token{Text: text[start:end], Start: start, End: end})
	}
}

// Words returns just the token strings of Tokenize(text).
func Words(text string) []string { return AppendWords(nil, text) }

// AppendWords appends the token strings of Tokenize(text) to dst and
// returns the extended slice.
func AppendWords(dst []string, text string) []string {
	sc := scanner{text: text}
	for {
		start, end, _, ok := sc.next()
		if !ok {
			return dst
		}
		dst = append(dst, text[start:end])
	}
}

// AppendLower appends the lowercase form of each word to dst and returns
// the extended slice: a sentence's one lowercasing, which the tagger, the
// chunker and the attacher all read.
func AppendLower(dst, words []string) []string {
	dst = slices.Grow(dst, len(words))
	for _, w := range words {
		dst = append(dst, strings.ToLower(w))
	}
	return dst
}

// scanner is the one pass over text that Tokenize, Words and NormalizeTerms
// share, so all three cut text at the same token boundaries.
type scanner struct {
	text   string
	i      int // next byte to scan
	clitic int // when > 0, a clitic split off a word spans text[i:clitic]
}

// next returns the next token, text[start:end], and whether it is a word or
// a clitic split from one rather than punctuation; ok is false once text is
// exhausted.
func (s *scanner) next() (start, end int, word, ok bool) {
	if s.clitic > 0 {
		start, end = s.i, s.clitic
		s.i, s.clitic = end, 0
		return start, end, true, true
	}
	text, n := s.text, len(s.text)
	for s.i < n {
		i := s.i
		b := text[i]
		switch {
		case b == ' ' || (b >= '\t' && b <= '\r'): // ASCII white space
			s.i++
		case isWordByte(b):
			j := i + 1 // isWordByte first: inlined, it settles most bytes
			for j < n && (isWordByte(text[j]) || isWordContinuation(text, j)) {
				j++
			}
			if cut := cliticCut(text[i:j]); cut > 0 {
				s.i, s.clitic = i+cut, j
				return i, i + cut, true, true
			}
			s.i = j
			return i, j, true, true
		default:
			// punctuation: group runs of identical punctuation ("..." "--")
			j := i + 1
			for j < n && text[j] == b && isGroupablePunct(b) {
				j++
			}
			s.i = j
			return i, j, false, true
		}
	}
	return 0, 0, false, false
}

// isWordByte reports whether b can begin a word token.
func isWordByte(b byte) bool {
	return b == '_' || b == '#' ||
		(b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z') ||
		(b >= '0' && b <= '9') || b >= 128
}

// isWordContinuation reports whether the byte at position j continues a word
// token that started earlier. Inner hyphens, dots between alphanumerics,
// apostrophes (handled later by clitic splitting) and identifier characters
// continue a word.
func isWordContinuation(text string, j int) bool {
	b := text[j]
	if isWordByte(b) {
		return true
	}
	if j == 0 || j+1 >= len(text) {
		return false
	}
	prev, next := text[j-1], text[j+1]
	switch b {
	case '-', '.', '/':
		// "non-coalesced", "3.14", "read/write"
		return isWordByte(prev) && isWordByte(next)
	case '\'':
		return isWordByte(prev) && isWordByte(next)
	case '(', ')':
		// keep "clWaitForEvents()" together: '(' directly followed by ')'
		if b == '(' && next == ')' && isWordByte(prev) {
			return true
		}
		if b == ')' && prev == '(' {
			return true
		}
		return false
	}
	return false
}

func isGroupablePunct(b byte) bool {
	return b == '.' || b == '-' || b == '*' || b == '=' || b == '_'
}

// cliticCut returns the offset at which word splits before a trailing
// contraction clitic ("don't" at 2, "GPU's" at 3), or 0 when it has none.
// Every clitic contains an apostrophe, so only a word that contains one is
// lowercased and examined.
func cliticCut(word string) int {
	if strings.IndexByte(word, '\'') < 0 {
		return 0
	}
	lower := strings.ToLower(word)
	for _, suf := range cliticSuffixes {
		if len(lower) > len(suf) && strings.HasSuffix(lower, suf) {
			return len(word) - len(suf)
		}
	}
	return 0
}

// IsPunct reports whether tok consists entirely of punctuation bytes.
func IsPunct(tok string) bool {
	if tok == "" {
		return true
	}
	for i := 0; i < len(tok); i++ {
		b := tok[i]
		if isWordByte(b) {
			return false
		}
	}
	return true
}

// IsNumeric reports whether tok looks like a number literal (integer, float,
// percentage, or a float with a C suffix like "3.14f" common in CUDA text).
func IsNumeric(tok string) bool {
	if tok == "" {
		return false
	}
	digits := 0
	for i := 0; i < len(tok); i++ {
		b := tok[i]
		switch {
		case b >= '0' && b <= '9':
			digits++
		case b == '.' || b == ',' || b == '%' || b == 'x' || b == 'X' || b == 'e' || b == 'E' || b == '+' || b == '-' || b == 'f' || b == 'F':
			// allowed non-digit characters inside numbers
		default:
			return false
		}
	}
	return digits > 0
}
