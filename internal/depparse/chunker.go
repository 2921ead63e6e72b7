package depparse

import "repro/internal/postag"

// chunkKind distinguishes the phrase types the attacher manipulates.
type chunkKind int

const (
	npChunk   chunkKind = iota // noun phrase
	vgChunk                    // verb group (aux chain + head verb)
	ppMarker                   // preposition (single token)
	advChunk                   // adverb (single token)
	adjChunk                   // predicate adjective (single token, outside NP)
	ccMarker                   // coordinating conjunction
	subMarker                  // subordinator opening an embedded clause
	punctTok                   // punctuation
	otherTok                   // anything else
)

// chunk is a contiguous token span with a designated head.
type chunk struct {
	kind    chunkKind
	start   int // first token index (inclusive)
	end     int // last token index (inclusive)
	head    int // head token index
	passive bool
	hasTo   bool // verb group introduced by infinitival "to"
	sub     bool // verb group preceded by a subordinator (embedded clause)
}

// subordinators open embedded clauses when seen at clause level.
var subordinators = map[string]bool{
	"if": true, "because": true, "when": true, "where": true, "while": true,
	"although": true, "though": true, "unless": true, "whether": true,
	"since": true, "that": true, "whenever": true, "wherever": true,
	"until": true, "once": true, "before": true, "after": true, "as": true,
}

// chunker groups the tagged tokens of one sentence, whose lowercase forms
// are lower, into phrases.
type chunker struct {
	words []string
	lower []string
	tags  []postag.Tag
}

// chunks performs a single left-to-right pass, appending the phrase
// sequence to out.
func (c *chunker) chunks(out []chunk) []chunk {
	n := len(c.words)
	i := 0
	for i < n {
		t := c.tags[i]
		switch {
		case t == postag.PUNCT:
			out = append(out, chunk{kind: punctTok, start: i, end: i, head: i})
			i++
		case c.lower[i] == "so" && t == postag.IN:
			// ", so avoid ..." coordinates clauses
			out = append(out, chunk{kind: ccMarker, start: i, end: i, head: i})
			i++
		case t == postag.VBG && i+1 < n && c.tags[i+1].FiniteVerb():
			// gerund subject: "Pinning takes time"
			out = append(out, chunk{kind: npChunk, start: i, end: i, head: i})
			i++
		case c.lower[i] == "that" && t == postag.DT && c.finiteVerbNear(i, 4):
			// relative pronoun / complementizer: "a stride that crosses",
			// "ensure that all accesses are coalesced"
			out = append(out, chunk{kind: subMarker, start: i, end: i, head: i})
			i++
		case c.isVerbGroupStart(i):
			ch := c.scanVerbGroup(i)
			out = append(out, ch)
			i = ch.end + 1
		case c.isNPStart(i):
			ch := c.scanNP(i)
			out = append(out, ch)
			i = ch.end + 1
		case t == postag.IN:
			if subordinators[c.lower[i]] && c.clauseFollows(i) {
				out = append(out, chunk{kind: subMarker, start: i, end: i, head: i})
			} else {
				out = append(out, chunk{kind: ppMarker, start: i, end: i, head: i})
			}
			i++
		case t == postag.WDT || t == postag.WP || t == postag.WRB:
			out = append(out, chunk{kind: subMarker, start: i, end: i, head: i})
			i++
		case t == postag.CC:
			out = append(out, chunk{kind: ccMarker, start: i, end: i, head: i})
			i++
		case t.IsAdverb():
			out = append(out, chunk{kind: advChunk, start: i, end: i, head: i})
			i++
		case t.IsAdjective():
			out = append(out, chunk{kind: adjChunk, start: i, end: i, head: i})
			i++
		case t == postag.TO:
			// "to" not followed by a verb behaves as a preposition
			out = append(out, chunk{kind: ppMarker, start: i, end: i, head: i})
			i++
		default:
			out = append(out, chunk{kind: otherTok, start: i, end: i, head: i})
			i++
		}
	}
	return out
}

// finiteVerbNear reports whether a finite verb occurs within the next
// `window` tokens after position i.
func (c *chunker) finiteVerbNear(i, window int) bool {
	limit := i + 1 + window
	if limit > len(c.tags) {
		limit = len(c.tags)
	}
	for j := i + 1; j < limit; j++ {
		if c.tags[j].FiniteVerb() {
			return true
		}
	}
	return false
}

// clauseFollows reports whether a subject+verb (or verb) plausibly follows
// position i, distinguishing subordinator use of "as"/"before"/... from
// prepositional use ("as a multiple of the warp size").
func (c *chunker) clauseFollows(i int) bool {
	lw := c.lower[i]
	// strong subordinators always open clauses
	switch lw {
	case "if", "because", "although", "though", "unless", "whether", "while", "that", "whenever", "wherever", "when", "where":
		// "that" as determiner is tagged DT, so IN-"that" is a complementizer
		return true
	}
	// weak ones (as, before, after, since, until, once): require a finite
	// verb within the next few tokens before any preposition.
	limit := i + 7
	if limit > len(c.tags) {
		limit = len(c.tags)
	}
	for j := i + 1; j < limit; j++ {
		if c.tags[j].FiniteVerb() {
			return true
		}
		if c.tags[j] == postag.IN || c.tags[j] == postag.PUNCT {
			return false
		}
	}
	return false
}

func (c *chunker) isVerbGroupStart(i int) bool {
	t := c.tags[i]
	if t == postag.MD {
		return true
	}
	if t == postag.TO {
		// infinitival to: followed by (adverb*) base verb
		j := i + 1
		for j < len(c.tags) && c.tags[j].IsAdverb() {
			j++
		}
		return j < len(c.tags) && c.tags[j] == postag.VB
	}
	if !t.IsVerb() {
		return false
	}
	if t == postag.VBG {
		// gerund head ("prefer using buffers", "in maximizing throughput")
		// vs NP-internal premodifier ("a sampling operation"): premodifier
		// exactly when NP material directly precedes.
		if i == 0 {
			return true
		}
		pt := c.tags[i-1]
		if pt == postag.DT || pt == postag.PRPS || pt.IsAdjective() ||
			pt == postag.CD || pt.IsNoun() {
			return false
		}
		return true
	}
	if t == postag.VBN {
		// a past participle heads a verb group only inside an auxiliary
		// chain ("is shared"); elsewhere it premodifies ("shared memory").
		j := i - 1
		for j >= 0 && (c.tags[j].IsAdverb() || c.lower[j] == "not") {
			j--
		}
		return j >= 0 && c.isAuxWord(j)
	}
	return true
}

func (c *chunker) isAuxWord(i int) bool {
	switch c.lower[i] {
	case "be", "is", "are", "am", "was", "were", "been", "being",
		"have", "has", "had", "having", "do", "does", "did",
		"can", "could", "may", "might", "must", "shall", "should",
		"will", "would", "cannot", "ca", "to", "get", "gets", "got":
		return true
	}
	return false
}

// scanVerbGroup consumes an auxiliary chain plus head verb starting at i:
// [TO] (MD|be|have|do)* (RB|not)* V. The head is the final, rightmost verb.
func (c *chunker) scanVerbGroup(i int) chunk {
	n := len(c.tags)
	ch := chunk{kind: vgChunk, start: i}
	j := i
	if c.tags[j] == postag.TO {
		ch.hasTo = true
		j++
	}
	lastVerb := -1
	sawBe := false
	sawBeLast := false
	for j < n {
		t := c.tags[j]
		lw := c.lower[j]
		if t.IsAdverb() || lw == "not" || lw == "n't" {
			j++
			continue
		}
		if !t.IsVerb() && t != postag.MD {
			break
		}
		// premodifier check: a VBN/VBG before nominal material terminates
		// the group unless a be-auxiliary directly licenses it
		if (t == postag.VBN || t == postag.VBG) && !sawBeLast && lastVerb >= 0 {
			// e.g. "uses shared memory": "shared" starts an NP, not the VG
			if j+1 < n && (c.tags[j+1].IsNoun() || c.tags[j+1].IsAdjective()) {
				break
			}
		}
		lastVerb = j
		sawBeLast = isBeWord(lw)
		if sawBeLast {
			sawBe = true
		}
		j++
		// only auxiliaries continue the chain; a lexical verb ends it
		// unless the next token is a verb licensed by this one (be/have/do/MD)
		if !c.isAuxWord(lastVerb) {
			break
		}
	}
	if lastVerb < 0 {
		// degenerate: "to" with no verb; treat as single-token marker
		ch.end = i
		ch.head = i
		return ch
	}
	ch.end = j - 1
	if ch.end < lastVerb {
		ch.end = lastVerb
	}
	ch.head = lastVerb
	ch.passive = sawBe && c.tags[lastVerb] == postag.VBN && !isBeWord(c.lower[lastVerb])
	return ch
}

func isBeWord(lw string) bool {
	switch lw {
	case "be", "is", "are", "am", "was", "were", "been", "being":
		return true
	}
	return false
}

func (c *chunker) isNPStart(i int) bool {
	t := c.tags[i]
	switch {
	case t == postag.DT, t == postag.PRPS, t == postag.PRP, t == postag.EX,
		t == postag.CD, t.IsNoun():
		return true
	case t.IsAdjective():
		// adjective opening an NP: must be followed by nominal material
		for j := i + 1; j < len(c.tags); j++ {
			tj := c.tags[j]
			if tj.IsAdjective() || tj == postag.CD || tj == postag.VBN || tj == postag.VBG {
				continue
			}
			return tj.IsNoun()
		}
	case t == postag.VBN:
		// participial premodifier opening an NP: "shared memory",
		// "privatized counters"
		return c.nominalAhead(i)
	}
	return false
}

// scanNP consumes (DT|PRP$)? (JJ|VBN|VBG|CD|NN*)* head-noun, head = last noun.
func (c *chunker) scanNP(i int) chunk {
	n := len(c.tags)
	ch := chunk{kind: npChunk, start: i}
	j := i
	lastNoun := -1
	if c.tags[j] == postag.PRP || c.tags[j] == postag.EX {
		ch.end = j
		ch.head = j
		return ch
	}
	if c.tags[j] == postag.DT || c.tags[j] == postag.PRPS {
		j++
	}
	if j < n && j == i && c.tags[j] == postag.VBN {
		// NP opened by a participle premodifier: consume it first
		j++
	}
	for j < n {
		t := c.tags[j]
		switch {
		case t.IsNoun():
			lastNoun = j
			j++
		case t.IsAdjective() || t == postag.CD:
			// only continue if nominal material can still follow
			if lastNoun >= 0 && !c.nominalAhead(j) {
				goto done
			}
			j++
		case (t == postag.VBN || t == postag.VBG) && c.nominalAhead(j):
			j++ // participial premodifier
		case t == postag.POS:
			j++ // possessive 's
		default:
			goto done
		}
	}
done:
	if lastNoun < 0 {
		// determiner or adjectives with no noun: head = last token scanned
		if j-1 >= i {
			ch.end = j - 1
			ch.head = j - 1
		} else {
			ch.end = i
			ch.head = i
		}
		return ch
	}
	ch.end = lastNoun
	ch.head = lastNoun
	// do not absorb trailing adjectives past the head noun
	return ch
}

// nominalAhead reports whether a noun occurs before any non-premodifier token
// starting at j+... (used to decide if an adjective/participle is inside an NP).
func (c *chunker) nominalAhead(j int) bool {
	for k := j + 1; k < len(c.tags); k++ {
		t := c.tags[k]
		if t.IsNoun() {
			return true
		}
		if t.IsAdjective() || t == postag.CD || t == postag.VBN || t == postag.VBG {
			continue
		}
		return false
	}
	return false
}
