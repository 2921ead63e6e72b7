package textproc

import (
	"strings"
	"sync/atomic"
)

// Stem applies the Porter stemming algorithm (Porter, 1980) to word and
// returns the stem in lowercase. Words of length <= 2 are returned unchanged
// (lowercased), per the original algorithm. The NLTK extension LOGI->LOG in
// step 2 is included to match the behaviour of the stemmer the paper used.
// Stems of ASCII words of up to memoMaxWord bytes are memoized, so such a
// word runs the algorithm once per process, or again after an eviction.
func Stem(word string) string {
	if e := memoize(word); e != nil {
		return e.stem
	}
	return string(porter([]byte(strings.ToLower(word))))
}

// StemAll stems each word of words, returning a new slice.
func StemAll(words []string) []string { return AppendStems(nil, words) }

// AppendStems appends the stem of each word of words to dst and returns the
// extended slice. A nil dst gets a new slice of exactly that size, so the
// result is never nil.
func AppendStems(dst, words []string) []string {
	if dst == nil {
		dst = make([]string, 0, len(words))
	}
	for _, w := range words {
		dst = append(dst, Stem(w))
	}
	return dst
}

// porter stems the lowercased word w in place and returns the stem, which
// shares w's array.
func porter(w []byte) []byte {
	if len(w) <= 2 {
		return w
	}
	for _, b := range w {
		if b < 'a' || b > 'z' {
			// not a plain alphabetic word (identifier, number, ...):
			// leave untouched, vendor-guide identifiers must not be mangled.
			return w
		}
	}
	w = step1a(w)
	w = step1b(w)
	w = step1c(w)
	w = step2(w)
	w = step3(w)
	w = step4(w)
	w = step5a(w)
	return step5b(w)
}

// The stem memo: a fixed table of 1<<memoBits slots of immutable entries.
// Each word may sit in either of two slots picked by its hash, so two
// frequent words that share one slot do not keep evicting each other, as
// they would in a direct-mapped table. Stemming is a pure function of the
// lowercased word, so a hit returns exactly what recomputing would, and an
// entry overwritten by a racing writer only costs a recomputation. Entries
// own their bytes; the table holds at most 1<<memoBits words of at most
// memoMaxWord bytes each.
const (
	memoBits    = 14
	memoMaxWord = 32 // longer words are stemmed on every call
)

// memoEntry is one memoized word: its ASCII-lowercased form, Porter stem
// and whether it is a stopword.
type memoEntry struct {
	word, stem string
	stop       bool
}

var memo [1 << memoBits]atomic.Pointer[memoEntry]

// memoize returns the memo entry of word, stemming and publishing it on a
// miss, or nil when word is not ASCII or is longer than memoMaxWord: such
// words go through strings.ToLower, whose Unicode mapping can change their
// length and even make them ASCII.
func memoize(word string) *memoEntry {
	if len(word) > memoMaxWord {
		return nil
	}
	var buf [memoMaxWord]byte
	for i := 0; i < len(word); i++ {
		b := word[i]
		if b >= 0x80 {
			return nil
		}
		if 'A' <= b && b <= 'Z' {
			b += 'a' - 'A'
		}
		buf[i] = b
	}
	lower := buf[:len(word)]
	i1, i2 := memoSlots(lower)
	s1, s2 := &memo[i1], &memo[i2]
	e1 := s1.Load()
	if e1 != nil && e1.word == string(lower) {
		return e1
	}
	e2 := s2.Load()
	if e2 != nil && e2.word == string(lower) {
		return e2
	}
	e := &memoEntry{word: string(lower)}
	e.stop = stopwordSet[e.word]
	if stem := porter(lower); string(stem) == e.word {
		e.stem = e.word
	} else {
		e.stem = string(stem)
	}
	// take a free slot, the first if both are; evict from the first. An
	// evicted word moves to its other slot on its next miss if that is free.
	if e1 != nil && e2 == nil {
		s2.Store(e)
	} else {
		s1.Store(e)
	}
	return e
}

// memoSlots returns the two memo slots of a lowercased word: the top and
// bottom memoBits bits of its 64-bit FNV-1a hash, mixed by MurmurHash3's
// finalizer so that words differing in one byte land far apart.
func memoSlots(lower []byte) (first, second uint64) {
	h := uint64(14695981039346656037)
	for _, b := range lower {
		h = (h ^ uint64(b)) * 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h >> (64 - memoBits), h & (1<<memoBits - 1)
}

// isConsonant reports whether w[i] is a consonant in Porter's sense:
// a letter other than a, e, i, o, u, and other than y when preceded by a
// consonant.
func isConsonant(w []byte, i int) bool {
	switch w[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		if i == 0 {
			return true
		}
		return !isConsonant(w, i-1)
	}
	return true
}

// measure computes Porter's m: the number of VC sequences in [C](VC)^m[V].
func measure(w []byte) int {
	n := len(w)
	i := 0
	// skip initial consonants
	for i < n && isConsonant(w, i) {
		i++
	}
	m := 0
	for {
		// skip vowels
		for i < n && !isConsonant(w, i) {
			i++
		}
		if i >= n {
			return m
		}
		// skip consonants
		for i < n && isConsonant(w, i) {
			i++
		}
		m++
		if i >= n {
			return m
		}
	}
}

// containsVowel reports whether the stem w contains a vowel (*v* condition).
func containsVowel(w []byte) bool {
	for i := range w {
		if !isConsonant(w, i) {
			return true
		}
	}
	return false
}

// endsDoubleConsonant reports the *d condition: ends with a double consonant.
func endsDoubleConsonant(w []byte) bool {
	n := len(w)
	return n >= 2 && w[n-1] == w[n-2] && isConsonant(w, n-1)
}

// endsCVC reports the *o condition: stem ends cvc where the final consonant
// is not w, x or y.
func endsCVC(w []byte) bool {
	n := len(w)
	if n < 3 {
		return false
	}
	if !isConsonant(w, n-3) || isConsonant(w, n-2) || !isConsonant(w, n-1) {
		return false
	}
	b := w[n-1]
	return b != 'w' && b != 'x' && b != 'y'
}

func hasSuffix(w []byte, s string) bool {
	if len(w) < len(s) {
		return false
	}
	return string(w[len(w)-len(s):]) == s
}

// replaceSuffix replaces suffix s with r, assuming hasSuffix(w, s).
func replaceSuffix(w []byte, s, r string) []byte {
	return append(w[:len(w)-len(s)], r...)
}

func step1a(w []byte) []byte {
	switch {
	case hasSuffix(w, "sses"):
		return replaceSuffix(w, "sses", "ss")
	case hasSuffix(w, "ies"):
		return replaceSuffix(w, "ies", "i")
	case hasSuffix(w, "ss"):
		return w
	case hasSuffix(w, "s"):
		return w[:len(w)-1]
	}
	return w
}

func step1b(w []byte) []byte {
	if hasSuffix(w, "eed") {
		if measure(w[:len(w)-3]) > 0 {
			return w[:len(w)-1] // eed -> ee
		}
		return w
	}
	applied := false
	if hasSuffix(w, "ed") && containsVowel(w[:len(w)-2]) {
		w = w[:len(w)-2]
		applied = true
	} else if hasSuffix(w, "ing") && containsVowel(w[:len(w)-3]) {
		w = w[:len(w)-3]
		applied = true
	}
	if !applied {
		return w
	}
	switch {
	case hasSuffix(w, "at"):
		return append(w, 'e')
	case hasSuffix(w, "bl"):
		return append(w, 'e')
	case hasSuffix(w, "iz"):
		return append(w, 'e')
	case endsDoubleConsonant(w):
		last := w[len(w)-1]
		if last != 'l' && last != 's' && last != 'z' {
			return w[:len(w)-1]
		}
		return w
	case measure(w) == 1 && endsCVC(w):
		return append(w, 'e')
	}
	return w
}

func step1c(w []byte) []byte {
	if hasSuffix(w, "y") && containsVowel(w[:len(w)-1]) {
		w[len(w)-1] = 'i'
	}
	return w
}

// step2Rules are tried longest-match-wins within this ordered list; each
// applies only when measure(stem) > 0.
var step2Rules = []struct{ suf, rep string }{
	{"ational", "ate"}, {"tional", "tion"}, {"enci", "ence"}, {"anci", "ance"},
	{"izer", "ize"}, {"abli", "able"}, {"alli", "al"}, {"entli", "ent"},
	{"eli", "e"}, {"ousli", "ous"}, {"ization", "ize"}, {"ation", "ate"},
	{"ator", "ate"}, {"alism", "al"}, {"iveness", "ive"}, {"fulness", "ful"},
	{"ousness", "ous"}, {"aliti", "al"}, {"iviti", "ive"}, {"biliti", "ble"},
	{"logi", "log"},
}

func step2(w []byte) []byte {
	for _, r := range step2Rules {
		if hasSuffix(w, r.suf) {
			if measure(w[:len(w)-len(r.suf)]) > 0 {
				return replaceSuffix(w, r.suf, r.rep)
			}
			return w
		}
	}
	return w
}

var step3Rules = []struct{ suf, rep string }{
	{"icate", "ic"}, {"ative", ""}, {"alize", "al"}, {"iciti", "ic"},
	{"ical", "ic"}, {"ful", ""}, {"ness", ""},
}

func step3(w []byte) []byte {
	for _, r := range step3Rules {
		if hasSuffix(w, r.suf) {
			if measure(w[:len(w)-len(r.suf)]) > 0 {
				return replaceSuffix(w, r.suf, r.rep)
			}
			return w
		}
	}
	return w
}

var step4Suffixes = []string{
	"al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
	"ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
}

func step4(w []byte) []byte {
	for _, suf := range step4Suffixes {
		if !hasSuffix(w, suf) {
			continue
		}
		stem := w[:len(w)-len(suf)]
		if measure(stem) <= 1 {
			return w
		}
		if suf == "ion" {
			if n := len(stem); n == 0 || (stem[n-1] != 's' && stem[n-1] != 't') {
				return w
			}
		}
		return stem
	}
	return w
}

func step5a(w []byte) []byte {
	if !hasSuffix(w, "e") {
		return w
	}
	stem := w[:len(w)-1]
	m := measure(stem)
	if m > 1 || (m == 1 && !endsCVC(stem)) {
		return stem
	}
	return w
}

func step5b(w []byte) []byte {
	if measure(w) > 1 && endsDoubleConsonant(w) && w[len(w)-1] == 'l' {
		return w[:len(w)-1]
	}
	return w
}
