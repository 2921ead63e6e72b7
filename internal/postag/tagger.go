package postag

import (
	"slices"
	"strings"

	"repro/internal/textproc"
)

// Tag assigns a part-of-speech tag to every token of one sentence. The
// algorithm is two-phase: lexicon/morphology assignment followed by
// contextual repair rules (a small Brill-style pass specialized for the
// constructions Egeria's selectors need: imperatives, passives, modal
// complements, infinitival purpose clauses).
func Tags(words []string) []Tag { return AppendTags(nil, words, textproc.AppendLower(nil, words)) }

// AppendTags appends the tags of one sentence's words, whose lowercase
// forms are lower, to dst and returns the extended slice.
func AppendTags(dst []Tag, words, lower []string) []Tag {
	dst = slices.Grow(dst, len(words))
	n := len(dst)
	for i, w := range words {
		dst = append(dst, initialTag(w, lower[i], i))
	}
	contextualRepair(words, lower, dst[n:])
	return dst
}

func initialTag(word, lw string, pos int) Tag {
	if textproc.IsPunct(word) {
		return PUNCT
	}
	if textproc.IsNumeric(word) {
		return CD
	}
	if lw == "to" {
		return TO
	}
	if t, ok := closedClass[lw]; ok {
		return t
	}
	if t, ok := beForms[lw]; ok {
		return t
	}
	if t, ok := haveForms[lw]; ok {
		return t
	}
	if t, ok := doForms[lw]; ok {
		return t
	}
	if numberWords[lw] {
		return CD
	}
	if commonAdverbs[lw] {
		return RB
	}
	if isAcronym(word) {
		return NNP
	}
	if isIdentifier(word) {
		return NN
	}
	if t, ok := morphologicalTag(lw); ok {
		return t
	}
	// capitalized word not at sentence start and unknown: proper noun
	if pos > 0 && word[0] >= 'A' && word[0] <= 'Z' {
		if _, known := openLexicon[lw]; !known {
			return NNP
		}
	}
	return suffixHeuristic(lw)
}

// isIdentifier reports whether the token looks like a code identifier
// (contains characters no English word has).
func isIdentifier(w string) bool {
	return strings.ContainsAny(w, "_()#/\\{}<>=") ||
		strings.Contains(w, ".") ||
		hasInnerUpper(w)
}

func hasInnerUpper(w string) bool {
	for i := 1; i < len(w); i++ {
		if w[i] >= 'A' && w[i] <= 'Z' {
			return true
		}
	}
	return false
}

func isAcronym(w string) bool {
	if len(w) < 2 {
		return false
	}
	for i := 0; i < len(w); i++ {
		b := w[i]
		if !(b >= 'A' && b <= 'Z') && !(b >= '0' && b <= '9') {
			return false
		}
	}
	return true
}

// morphologicalTag analyses inflectional endings against the open lexicon.
func morphologicalTag(lw string) (Tag, bool) {
	if a, ok := openLexicon[lw]; ok {
		return baseFormTag(a), true
	}
	switch {
	case strings.HasSuffix(lw, "ing") && len(lw) > 4:
		base := textproc.Lemma(lw, textproc.VerbClass)
		if a, ok := openLexicon[base]; ok && a&CanVerb != 0 {
			return VBG, true
		}
		if base != lw {
			return VBG, true // unknown -ing: participle is the safer default
		}
	case strings.HasSuffix(lw, "ed") && len(lw) > 3:
		base := textproc.Lemma(lw, textproc.VerbClass)
		if a, ok := openLexicon[base]; ok && a&CanVerb != 0 {
			return VBD, true // repaired to VBN contextually
		}
		if base != lw {
			return VBD, true
		}
	case strings.HasSuffix(lw, "s") && !strings.HasSuffix(lw, "ss") && len(lw) > 2:
		vbase := textproc.Lemma(lw, textproc.VerbClass)
		nbase := textproc.Lemma(lw, textproc.NounClass)
		va, vok := openLexicon[vbase]
		na, nok := openLexicon[nbase]
		verbOK := vok && va&CanVerb != 0
		nounOK := nok && na&CanNoun != 0
		switch {
		case nounOK:
			return NNS, true // repaired to VBZ contextually when needed
		case verbOK:
			return VBZ, true
		}
		return NNS, true
	case strings.HasSuffix(lw, "er") && len(lw) > 3:
		base := textproc.Lemma(lw, textproc.AdjClass)
		if a, ok := openLexicon[base]; ok && a&CanAdj != 0 {
			return JJR, true
		}
	case strings.HasSuffix(lw, "est") && len(lw) > 4:
		base := textproc.Lemma(lw, textproc.AdjClass)
		if a, ok := openLexicon[base]; ok && a&CanAdj != 0 {
			return JJS, true
		}
	}
	// irregular inflections ("chosen", "written", "held"): the lemmatizer's
	// irregular table recognizes them even without a regular suffix.
	if base := textproc.Lemma(lw, textproc.VerbClass); base != lw {
		if a, ok := openLexicon[base]; ok && a&CanVerb != 0 {
			if strings.HasSuffix(lw, "en") || strings.HasSuffix(lw, "wn") ||
				strings.HasSuffix(lw, "ne") || strings.HasSuffix(lw, "un") {
				return VBN, true
			}
			return VBD, true
		}
	}
	return NN, false
}

// baseFormTag picks the default tag for a base-form lexicon entry; ambiguous
// noun/verb entries default to NN and are promoted to VB/VBP contextually.
func baseFormTag(a Ambig) Tag {
	switch {
	case a&CanNoun != 0:
		return NN
	case a&CanVerb != 0:
		return VBP
	case a&CanAdj != 0:
		return JJ
	case a&CanAdv != 0:
		return RB
	}
	return NN
}

func suffixHeuristic(lw string) Tag {
	switch {
	case strings.HasSuffix(lw, "ly"):
		return RB
	case strings.HasSuffix(lw, "tion"), strings.HasSuffix(lw, "sion"),
		strings.HasSuffix(lw, "ment"), strings.HasSuffix(lw, "ness"),
		strings.HasSuffix(lw, "ity"), strings.HasSuffix(lw, "ance"),
		strings.HasSuffix(lw, "ence"), strings.HasSuffix(lw, "ship"),
		strings.HasSuffix(lw, "ism"), strings.HasSuffix(lw, "ware"),
		strings.HasSuffix(lw, "put"):
		return NN
	case strings.HasSuffix(lw, "ous"), strings.HasSuffix(lw, "ful"),
		strings.HasSuffix(lw, "less"), strings.HasSuffix(lw, "able"),
		strings.HasSuffix(lw, "ible"), strings.HasSuffix(lw, "ive"),
		strings.HasSuffix(lw, "ic"), strings.HasSuffix(lw, "al"),
		strings.HasSuffix(lw, "ant"), strings.HasSuffix(lw, "ent"):
		return JJ
	case strings.HasSuffix(lw, "ize"), strings.HasSuffix(lw, "ise"),
		strings.HasSuffix(lw, "ify"):
		return VB
	}
	return NN
}

// contextualRepair applies ordered repair rules over the initial tags.
func contextualRepair(words, lower []string, tags []Tag) {
	n := len(tags)

	canBeVerb := func(i int) (Tag, bool) {
		lw := lower[i]
		if a, ok := openLexicon[lw]; ok && a&CanVerb != 0 {
			return VB, true
		}
		base := textproc.Lemma(lw, textproc.VerbClass)
		if base == lw {
			return "", false
		}
		if a, ok := openLexicon[base]; ok && a&CanVerb != 0 {
			switch {
			case strings.HasSuffix(lw, "ing"):
				return VBG, true
			case strings.HasSuffix(lw, "ed"):
				return VBN, true
			case strings.HasSuffix(lw, "s"):
				return VBZ, true
			}
		}
		return "", false
	}

	// Rule 1: word after MD, TO or do-support (skipping adverbs/negation)
	// becomes a base-form verb when it can be one: "may prefer",
	// "to minimize", "should be", "do not use".
	for i := 1; i < n; i++ {
		_, isDo := doForms[lower[i-1]]
		if tags[i-1] != MD && tags[i-1] != TO && !isDo {
			continue
		}
		j := i
		for j < n && (tags[j].IsAdverb() || lower[j] == "not") {
			j++
		}
		if j >= n {
			break
		}
		if _, ok := beForms[lower[j]]; ok {
			tags[j] = VB
			continue
		}
		if lw := lower[j]; lw == "have" || lw == "do" {
			tags[j] = VB
			continue
		}
		if a, ok := openLexicon[lower[j]]; ok && a&CanVerb != 0 {
			tags[j] = VB
		} else if !ok && tags[j] == NN && tags[i-1] == TO && !nounSuffix(lower[j]) {
			// unknown word after infinitival "to" is almost always a verb
			// ("to rebuild", "to restructure") — unless it carries an
			// unambiguous noun suffix ("to completion")
			tags[j] = VB
		}
	}

	// Rule 2: past forms after a be/have auxiliary (skipping adverbs)
	// become past participles: "can often be leveraged", "has been shown",
	// "is needed".
	for i := 0; i < n; i++ {
		if tags[i] != VBD && tags[i] != VBN {
			continue
		}
		for j := i - 1; j >= 0 && i-j <= 4; j-- {
			if tags[j].IsAdverb() || lower[j] == "not" {
				continue
			}
			_, isBe := beForms[lower[j]]
			_, isHave := haveForms[lower[j]]
			if isBe || isHave || lower[j] == "be" || lower[j] == "been" ||
				lower[j] == "being" || lower[j] == "get" || lower[j] == "gets" {
				tags[i] = VBN
			}
			break
		}
	}

	// Rule 3: participial premodifier — VBD directly before a noun acts
	// adjectivally when it does not follow a subject; retag as VBN
	// ("optimized code", "shared memory"): keeps NP chunking sane.
	// Runs again after the imperative rule, whose retagging can expose
	// new premodifier positions ("Use shared memory").
	retagPremodifiers := func() {
		for i := 0; i+1 < n; i++ {
			if tags[i] == VBD && (tags[i+1].IsNoun() || tags[i+1] == VBG) {
				if i == 0 || tags[i-1] == DT || tags[i-1].IsAdjective() ||
					tags[i-1] == IN || tags[i-1] == CC || tags[i-1] == PRPS ||
					tags[i-1] == CD || tags[i-1].IsVerb() || tags[i-1] == TO {
					tags[i] = VBN
				}
			}
		}
	}
	retagPremodifiers()

	// Rule 4: noun/verb-ambiguous token after a determiner, possessive,
	// adjective or preposition is a noun: "the call", "a map".
	for i := 1; i < n; i++ {
		if !tags[i].IsVerb() {
			continue
		}
		prev := tags[i-1]
		if prev == DT || prev == PRPS || prev.IsAdjective() || prev == CD {
			lw := lower[i]
			if a, ok := openLexicon[lw]; ok && a&CanNoun != 0 {
				tags[i] = NN
			} else if strings.HasSuffix(lw, "ing") {
				// "the pinning" — gerund as noun head
				if i+1 >= n || !tags[i+1].IsNoun() {
					tags[i] = NN
				}
			} else if (tags[i] == VB || tags[i] == VBP) && (prev == DT || prev == PRPS) {
				// determiners never precede finite verbs: "the gather",
				// "a fetch" are nominalizations even for verb-only words
				tags[i] = NN
			}
		}
	}

	// Rule 4b: a past form directly after a preposition is a participial
	// complement ("from interleaved to planar"), and a past form directly
	// followed by "by" is a passive postmodifier ("a scan followed by a
	// pack") — both are VBN, not finite verbs.
	for i := 1; i < n; i++ {
		if tags[i] != VBD {
			continue
		}
		if tags[i-1] == IN || tags[i-1] == TO {
			tags[i] = VBN
			continue
		}
		if i+1 < n && lower[i+1] == "by" && tags[i-1].IsNoun() {
			tags[i] = VBN
		}
	}

	// Rule 5b: a plural-looking token wedged between a noun and a
	// determiner phrase must be a verb — "the segment boundary splits each
	// request" — regardless of finite verbs elsewhere in the sentence.
	for i := 1; i+1 < n; i++ {
		if tags[i] != NNS {
			continue
		}
		if !tags[i-1].IsNoun() && tags[i-1] != PRP {
			continue
		}
		if tags[i+1] != DT && tags[i+1] != PRPS {
			continue
		}
		if vt, ok := canBeVerb(i); ok && vt == VBZ {
			tags[i] = VBZ
		}
	}

	// Rule 5c: inside a fronted subordinate clause ("When the queue
	// drains, ..."), the clause needs a verb before the comma; promote the
	// last verb-capable NNS if no finite verb precedes it.
	if n > 2 && clauseOpeners[lower[0]] {
		comma := -1
		for i := 1; i < n; i++ {
			if words[i] == "," {
				comma = i
				break
			}
		}
		if comma > 1 {
			hasFinite := false
			last := -1
			for i := 1; i < comma; i++ {
				if tags[i].FiniteVerb() {
					hasFinite = true
					break
				}
				if tags[i] == NNS && (tags[i-1].IsNoun() || tags[i-1] == PRP) {
					last = i
				}
			}
			if !hasFinite && last > 0 {
				if vt, ok := canBeVerb(last); ok && vt == VBZ {
					tags[last] = VBZ
				}
			}
		}
	}

	// Rule 5d: a plural-looking token right after a relative pronoun is the
	// relative clause's verb: "a kernel that spills registers".
	for i := 1; i < n; i++ {
		if tags[i] != NNS {
			continue
		}
		switch lower[i-1] {
		case "that", "which", "who":
			if vt, ok := canBeVerb(i); ok && vt == VBZ {
				tags[i] = VBZ
			}
		}
	}

	// Rule 6: sentence-initial imperative. If the first non-adverbial token
	// is a known base-form verb and the rest of the clause contains no
	// finite verb before a clause boundary, the sentence is imperative:
	// "Use shared memory to ...", "Avoid incurring pinning costs ...".
	start := 0
	for start < n && (tags[start].IsAdverb() || tags[start] == PUNCT || tags[start] == UH) {
		start++
	}
	if start < n {
		lw := lower[start]
		if a, ok := openLexicon[lw]; ok && a&CanVerb != 0 &&
			(!tags[start].FiniteVerb() || tags[start] == VBP) && tags[start] != VBG {
			if !clauseHasFiniteVerbBefore(tags, lower, start+1) {
				tags[start] = VB
				retagPremodifiers()
			}
		}
	}

	// Rule 6c: a semicolon restarts the clause; apply the imperative test
	// right after it ("transfers dominate; overlap them with kernels").
	for i := 0; i+1 < n; i++ {
		if words[i] != ";" {
			continue
		}
		j := i + 1
		for j < n && (tags[j].IsAdverb() || tags[j] == PUNCT) {
			j++
		}
		if j >= n {
			break
		}
		if a, ok := openLexicon[lower[j]]; ok && a&CanVerb != 0 &&
			(!tags[j].FiniteVerb() || tags[j] == VBP) && tags[j] != VBG && tags[j] != VBN {
			if !clauseHasFiniteVerbBefore(tags, lower, j+1) {
				tags[j] = VB
				retagPremodifiers()
			}
		}
	}

	// Rule 6b: a fronted subordinate or purpose clause shifts the main
	// clause after the first comma: "If the kernel is memory bound, use
	// shared memory"; "To hide latency, increase occupancy." Apply the
	// imperative test at the post-comma position.
	if start < n && (clauseOpeners[lower[start]] || tags[start] == TO || tags[start] == WRB || tags[start] == VBG) {
		for i := start + 1; i+1 < n; i++ {
			if words[i] != "," {
				continue
			}
			j := i + 1
			for j < n && (tags[j].IsAdverb() || tags[j] == PUNCT) {
				j++
			}
			if j >= n {
				break
			}
			lw := lower[j]
			if a, ok := openLexicon[lw]; ok && a&CanVerb != 0 &&
				(!tags[j].FiniteVerb() || tags[j] == VBP) && tags[j] != VBG && tags[j] != VBN {
				if !clauseHasFiniteVerbBefore(tags, lower, j+1) {
					tags[j] = VB
					retagPremodifiers()
				}
			}
			break
		}
	}

	// Rule 5 (runs after the imperative rules so their VB retags are
	// visible): an NNS after a complete NP may be the main verb — "the
	// kernel uses registers". Promote only when the sentence still has no
	// finite verb and no imperative VB (an imperative sentence already has
	// its verb: "increase the number of resident warps").
	if !hasFiniteVerb(tags) && !hasBareVB(tags) {
		for i := 1; i < n; i++ {
			if tags[i] != NNS {
				continue
			}
			if !tags[i-1].IsNoun() && tags[i-1] != PRP {
				continue
			}
			// a clause-final plural is (almost) never the verb: "the
			// release notes." stays nominal
			if i+1 >= n || tags[i+1] == PUNCT {
				continue
			}
			if vt, ok := canBeVerb(i); ok && vt == VBZ {
				tags[i] = VBZ
				break
			}
		}
	}

	// Rule 7: conjoined verbs copy the form of the first conjunct:
	// "... choose to use X, or ... provide two separate kernels".
	for i := 2; i < n; i++ {
		if tags[i-1] != CC && !(tags[i-1] == PUNCT && words[i-1] == ",") {
			continue
		}
		// find nearest verb to the left
		for j := i - 2; j >= 0; j-- {
			if tags[j].IsVerb() {
				if tags[i] == NN || tags[i] == VBP {
					if a, ok := openLexicon[lower[i]]; ok && a&CanVerb != 0 {
						// only promote when the candidate precedes a
						// plausible object/complement
						if i+1 < n && (tags[i+1] == DT || tags[i+1].IsAdjective() || tags[i+1].IsNoun() || tags[i+1] == CD || tags[i+1] == TO || tags[i+1] == VBG || tags[i+1] == VBD || tags[i+1] == VBN || tags[i+1] == PRP || tags[i+1] == PRPS) {
							tags[i] = tags[j]
						}
					}
				}
				break
			}
			if tags[j] == PUNCT {
				break
			}
			// scan past the first conjunct's object NP ("Avoid atomics
			// and use ...") but give up after a few tokens
			if i-j > 6 {
				break
			}
		}
	}

	// Rule 8: bare NN directly after a subject NP/pronoun at clause level
	// with no other finite verb is a present-tense verb:
	// "developers prefer buffers" (prefer tagged VBP by lexicon already;
	// this covers noun/verb ambiguous cases like "the compiler maps X").
	if !hasFiniteVerb(tags) {
		for i := 1; i < n; i++ {
			if tags[i] != NN && tags[i] != VBP {
				continue
			}
			if tags[i] == NN {
				a, ok := openLexicon[lower[i]]
				if !ok || a&CanVerb == 0 {
					continue
				}
			}
			if (tags[i-1].IsNoun() || tags[i-1] == PRP) && i+1 < n &&
				(tags[i+1] == DT || tags[i+1].IsNoun() || tags[i+1].IsAdjective() || tags[i+1] == VBG || tags[i+1] == TO || tags[i+1] == PRPS) {
				tags[i] = VBP
				break
			}
		}
	}
	// final premodifier pass: retags exposed by rules 6-8 ("and use
	// privatized counters" once "use" became a verb)
	retagPremodifiers()
}

// nounSuffix reports an unambiguous noun-deriving suffix.
func nounSuffix(lw string) bool {
	for _, suf := range []string{"tion", "sion", "ment", "ness", "ity",
		"ance", "ence", "ship", "ism", "ware", "age", "ture", "hood"} {
		if strings.HasSuffix(lw, suf) {
			return true
		}
	}
	return false
}

// hasBareVB reports whether any token carries the bare-verb tag VB (an
// imperative or promoted infinitive).
func hasBareVB(tags []Tag) bool {
	for _, t := range tags {
		if t == VB {
			return true
		}
	}
	return false
}

func hasFiniteVerb(tags []Tag) bool {
	for _, t := range tags {
		if t.FiniteVerb() {
			return true
		}
	}
	return false
}

// clauseHasFiniteVerbBefore reports whether a finite verb occurs from
// position i up to the first strong clause boundary (a semicolon or the
// subordinators which introduce a fresh clause). Commas are NOT treated as
// boundaries: "Pinning takes time, so avoid ..." must see "takes".
// subordinators that open an embedded clause: a finite verb beyond one of
// these belongs to the embedded clause, not the main clause.
var clauseOpeners = map[string]bool{
	"that": true, "if": true, "because": true, "when": true, "where": true,
	"while": true, "although": true, "though": true, "unless": true,
	"whether": true, "so": true, "since": true, "which": true, "who": true,
}

func clauseHasFiniteVerbBefore(tags []Tag, lower []string, i int) bool {
	for ; i < len(tags); i++ {
		if clauseOpeners[lower[i]] {
			return false
		}
		if tags[i].FiniteVerb() {
			// a VBD directly followed by a noun is almost certainly a
			// participial premodifier in this register ("shared memory"),
			// not a finite verb; keep scanning.
			if tags[i] == VBD && i+1 < len(tags) && (tags[i+1].IsNoun() || tags[i+1] == VBG) {
				continue
			}
			return true
		}
		if lower[i] == ";" {
			return false
		}
	}
	return false
}
