package depparse

import (
	"slices"

	"repro/internal/postag"
	"repro/internal/textproc"
)

// Pcomp is the relation of a clausal complement of a preposition
// ("in maximizing throughput").
const Pcomp RelType = "pcomp"

// ParseTagged assembles the dependency tree from pre-tagged tokens, on a
// Parser of its own.
func ParseTagged(words []string, tags []postag.Tag) *Tree {
	return new(Parser).Parse(words, textproc.AppendLower(nil, words), tags)
}

// Parser assembles dependency trees, reusing from sentence to sentence the
// storage of its one Tree (head, relOf, Relations), of the chunk sequence
// and of the attacher's pending lists. The zero value is ready to use. A
// Parser is not safe for concurrent use.
type Parser struct {
	tree   Tree
	chunks []chunk
	a      attacher
}

// Parse assembles the dependency tree of pre-tagged tokens, whose lowercase
// forms are lower. The tree is p's own and valid until p's next Parse; its
// Words and Tags are the caller's slices.
func (p *Parser) Parse(words, lower []string, tags []postag.Tag) *Tree {
	n := len(words)
	t := &p.tree
	*t = Tree{
		Words:     words,
		Tags:      tags,
		Relations: t.Relations[:0],
		head:      slices.Grow(t.head[:0], n)[:n],
		relOf:     slices.Grow(t.relOf[:0], n)[:n],
	}
	for i := range t.head {
		t.head[i] = -2
	}
	clear(t.relOf)
	if n == 0 {
		return t
	}
	p.a = attacher{
		tree:         t,
		lower:        lower,
		rootIdx:      -1,
		mainVerb:     -1,
		curVerb:      -1,
		subjCand:     -1,
		afterPrep:    -1,
		pendingCC:    -1,
		pendingSub:   -1,
		predAdj:      -1,
		lastNPHead:   -1,
		gerundSubj:   -1,
		pendingAdvs:  p.a.pendingAdvs[:0],
		orphanPreps:  p.a.orphanPreps[:0],
		deferredAdvc: p.a.deferredAdvc[:0],
	}
	c := chunker{words: words, lower: lower, tags: tags}
	p.chunks = c.chunks(p.chunks[:0])
	p.a.run(p.chunks)
	p.a.finish()
	return t
}

func isRelativePronoun(lw string) bool {
	switch lw {
	case "that", "which", "who", "whose":
		return true
	}
	return false
}

// attacher holds the clause-assembly state of the single left-to-right
// attachment pass.
type attacher struct {
	tree  *Tree
	lower []string

	rootIdx    int
	mainVerb   int // head verb of the top-level clause
	curVerb    int // current attachment target verb
	subjCand   int // head of the most recent subject-position NP
	afterPrep  int // preposition token awaiting its object
	pendingCC  int
	pendingSub int // subordinator token awaiting its clause verb
	predAdj    int // predicate adjective after a copula
	lastNPHead int
	gerundSubj int // sentence-initial gerund awaiting its matrix verb
	inSub      bool
	inPcomp    bool
	prevKind   chunkKind
	prevWasVG  bool

	pendingAdvs  []int
	orphanPreps  []int // prepositions seen before any verb
	deferredAdvc []int // embedded clause heads awaiting a main verb
}

// attach adds relation rel(gov, dep) unless dep is already attached or the
// edge would create a cycle.
func (a *attacher) attach(rel RelType, gov, dep int) bool {
	t := a.tree
	if dep < 0 || dep >= len(t.head) || t.head[dep] != -2 || gov == dep {
		return false
	}
	// cycle check: follow heads upward from gov
	for g := gov; g >= 0; g = t.head[g] {
		if g == dep {
			return false
		}
		if t.head[g] == -2 {
			break
		}
	}
	t.head[dep] = gov
	t.relOf[dep] = rel
	t.Relations = append(t.Relations, Relation{Type: rel, Governor: gov, Dependent: dep})
	return true
}

func (a *attacher) run(chunks []chunk) {
	for _, ch := range chunks {
		switch ch.kind {
		case npChunk:
			a.onNP(ch)
		case vgChunk:
			a.onVG(ch)
		case adjChunk:
			a.onAdj(ch)
		case ppMarker:
			a.onPrep(ch)
		case advChunk:
			a.onAdv(ch)
		case ccMarker:
			a.pendingCC = ch.head
		case subMarker:
			a.pendingSub = ch.head
			// a relative pronoun directly after an NP keeps the NP as the
			// semantic subject of the relative verb ("a stride that
			// crosses ..."); other subordinators start a fresh clause.
			if !(a.prevKind == npChunk && isRelativePronoun(a.lower[ch.head])) {
				a.subjCand = -1
			}
		case punctTok:
			a.onPunct(ch)
		default:
			if a.curVerb >= 0 {
				a.attach(Dep, a.curVerb, ch.head)
			}
		}
		if ch.kind != punctTok {
			a.prevWasVG = ch.kind == vgChunk
		}
		a.prevKind = ch.kind
	}
}

func (a *attacher) onNP(ch chunk) {
	a.emitNPInternal(ch)
	h := ch.head
	switch {
	case a.afterPrep >= 0:
		a.attach(Pobj, a.afterPrep, h)
		a.afterPrep = -1
	case a.pendingCC >= 0 && a.prevKind == ccMarker && a.lastNPHead >= 0:
		a.attach(Conj, a.lastNPHead, h)
		a.attach(Cc, a.lastNPHead, a.pendingCC)
		a.pendingCC = -1
	case a.prevWasVG && a.curVerb >= 0:
		a.attach(Dobj, a.curVerb, h)
	case a.predAdj >= 0:
		// "is better a choice"-style: rare; attach under the adjective
		a.attach(Dep, a.predAdj, h)
	default:
		a.subjCand = h
	}
	a.lastNPHead = h
}

func (a *attacher) onVG(ch chunk) {
	h := ch.head
	a.emitVGInternal(ch)
	finite := a.tree.Tags[h].FiniteVerb() || vgHasFiniteAux(a.tree, ch) ||
		isBeWord(a.lower[h])
	switch {
	case ch.hasTo && a.curVerb < 0 && a.rootIdx < 0 && a.mainVerb < 0:
		// sentence-initial infinitive: a fronted purpose clause
		// ("To hide the latency, increase ..."); the main clause follows.
		a.deferredAdvc = append(a.deferredAdvc, h)
		a.curVerb = h
		a.inSub = true
	case a.tree.Tags[h] == postag.VBG && a.curVerb < 0 && a.rootIdx < 0 &&
		a.subjCand < 0 && a.gerundSubj < 0 && !ch.hasTo:
		// sentence-initial gerund phrase acts as the subject of the matrix
		// verb: "Tiling the loops improves locality."
		a.gerundSubj = h
		a.curVerb = h
	case a.afterPrep >= 0:
		// gerund complement of a preposition: "in maximizing throughput"
		a.attach(Pcomp, a.afterPrep, h)
		a.afterPrep = -1
		a.curVerb = h
		a.inPcomp = true
	case a.pendingSub >= 0:
		a.attach(Mark, h, a.pendingSub)
		if a.mainVerb >= 0 {
			a.attach(Advcl, a.mainVerb, h)
		} else {
			a.deferredAdvc = append(a.deferredAdvc, h)
		}
		a.attachSubject(ch)
		a.pendingSub = -1
		a.curVerb = h
		a.inSub = true
	case (ch.hasTo || a.tree.Tags[h] == postag.VBG) && (a.predAdj >= 0 || a.curVerb >= 0):
		gov := a.predAdj
		if gov < 0 {
			gov = a.curVerb
		}
		a.attach(Xcomp, gov, h)
		a.predAdj = -1
		a.curVerb = h
	case a.tree.Tags[h] == postag.VB && a.prevWasVG && a.curVerb >= 0:
		// bare-infinitive complement: "help avoid explicit calls"
		a.attach(Xcomp, a.curVerb, h)
		a.curVerb = h
	case a.pendingCC >= 0 && a.curVerb >= 0:
		a.attach(Conj, a.curVerb, h)
		a.attach(Cc, a.curVerb, a.pendingCC)
		// only an NP between the conjunction and this verb is its subject;
		// leftovers from the previous conjunct are not.
		if a.subjCand >= 0 && a.subjCand < a.pendingCC {
			a.subjCand = -1
		}
		a.pendingCC = -1
		a.attachSubject(ch)
		a.curVerb = h
		if !a.inSub {
			a.mainVerb = h
		}
	case a.curVerb < 0 || (a.inPcomp && finite) ||
		(a.inSub && a.mainVerb < 0 && finite) ||
		(a.gerundSubj >= 0 && a.gerundSubj == a.curVerb && finite):
		// main clause verb: first verb, or discovered after a pcomp
		// digression, a fronted subordinate/purpose clause, or a gerund
		// subject phrase
		if a.rootIdx < 0 {
			a.attach(Root, -1, h)
			a.rootIdx = h
		} else if a.mainVerb >= 0 {
			a.attach(Conj, a.mainVerb, h)
		}
		a.mainVerb = h
		a.curVerb = h
		a.inPcomp = false
		a.inSub = false
		if a.gerundSubj >= 0 {
			a.attach(Nsubj, h, a.gerundSubj)
			a.gerundSubj = -1
		} else {
			a.attachSubject(ch)
		}
		a.flushDeferred(h)
	default:
		// comma-spliced or relative clause verb: coordinate conservatively
		if a.subjCand >= 0 {
			a.attachSubject(ch)
		}
		a.attach(Conj, a.curVerb, h)
		a.curVerb = h
	}
	for _, adv := range a.pendingAdvs {
		a.attach(Advmod, h, adv)
	}
	a.pendingAdvs = a.pendingAdvs[:0]
	for _, p := range a.orphanPreps {
		a.attach(Prep, h, p)
	}
	a.orphanPreps = a.orphanPreps[:0]
}

// attachSubject links the pending subject candidate to the verb group head,
// choosing nsubjpass for passive groups.
func (a *attacher) attachSubject(ch chunk) {
	if a.subjCand < 0 {
		return
	}
	rel := Nsubj
	if ch.passive {
		rel = Nsubjpass
	}
	a.attach(rel, ch.head, a.subjCand)
	a.subjCand = -1
}

func (a *attacher) flushDeferred(mainVerb int) {
	for _, h := range a.deferredAdvc {
		a.attach(Advcl, mainVerb, h)
	}
	a.deferredAdvc = a.deferredAdvc[:0]
}

func (a *attacher) onAdj(ch chunk) {
	h := ch.head
	switch {
	case a.curVerb >= 0 && isBeWord(a.lower[a.curVerb]):
		a.attach(Acomp, a.curVerb, h)
		a.predAdj = h
	case a.afterPrep >= 0:
		// "at best", "in general": adjective as prep object
		a.attach(Pobj, a.afterPrep, h)
		a.afterPrep = -1
	case a.pendingCC >= 0 && a.predAdj >= 0:
		a.attach(Conj, a.predAdj, h)
		a.attach(Cc, a.predAdj, a.pendingCC)
		a.pendingCC = -1
	case a.curVerb >= 0:
		a.attach(Acomp, a.curVerb, h)
		a.predAdj = h
	case a.lastNPHead >= 0:
		a.attach(Amod, a.lastNPHead, h)
	}
}

func (a *attacher) onPrep(ch chunk) {
	h := ch.head
	var gov int
	switch {
	case a.prevKind == npChunk && a.lastNPHead >= 0:
		gov = a.lastNPHead
	case a.predAdj >= 0:
		gov = a.predAdj
	case a.curVerb >= 0:
		gov = a.curVerb
	case a.subjCand >= 0:
		gov = a.subjCand
	default:
		a.orphanPreps = append(a.orphanPreps, h)
		a.afterPrep = h
		return
	}
	a.attach(Prep, gov, h)
	a.afterPrep = h
}

func (a *attacher) onAdv(ch chunk) {
	if a.curVerb >= 0 {
		a.attach(Advmod, a.curVerb, ch.head)
		return
	}
	a.pendingAdvs = append(a.pendingAdvs, ch.head)
}

func (a *attacher) onPunct(ch chunk) {
	switch a.tree.Words[ch.head] {
	case ",":
		a.afterPrep = -1
		if a.inSub {
			a.inSub = false
			if a.mainVerb >= 0 {
				a.curVerb = a.mainVerb
			} else {
				// fronted subordinate clause; the main clause starts here
				a.curVerb = -1
				a.subjCand = -1
			}
		}
	case ";", ":":
		a.curVerb = -1
		a.subjCand = -1
		a.predAdj = -1
		a.afterPrep = -1
		a.pendingCC = -1
		a.pendingSub = -1
		a.inSub = false
		a.inPcomp = false
	}
}

func (a *attacher) emitNPInternal(ch chunk) {
	h := ch.head
	for i := ch.start; i <= ch.end; i++ {
		if i == h {
			continue
		}
		switch tg := a.tree.Tags[i]; {
		case tg == postag.DT:
			a.attach(Det, h, i)
		case tg == postag.PRPS:
			a.attach(Poss, h, i)
		case tg.IsAdjective():
			a.attach(Amod, h, i)
		case tg == postag.VBN || tg == postag.VBG:
			a.attach(Amod, h, i)
		case tg == postag.CD:
			a.attach(Num, h, i)
		case tg.IsNoun():
			a.attach(Nn, h, i)
		default:
			a.attach(Dep, h, i)
		}
	}
}

func (a *attacher) emitVGInternal(ch chunk) {
	h := ch.head
	headIsBe := isBeWord(a.lower[h])
	for i := ch.start; i <= ch.end; i++ {
		if i == h {
			continue
		}
		lw := a.lower[i]
		switch tg := a.tree.Tags[i]; {
		case tg == postag.TO:
			a.attach(Mark, h, i)
		case lw == "not" || lw == "n't":
			a.attach(Neg, h, i)
		case tg == postag.MD:
			a.attach(Aux, h, i)
		case isBeWord(lw) && !headIsBe:
			if ch.passive {
				a.attach(Auxpass, h, i)
			} else {
				a.attach(Aux, h, i)
			}
		case tg.IsVerb():
			a.attach(Aux, h, i)
		case tg.IsAdverb():
			a.attach(Advmod, h, i)
		default:
			a.attach(Dep, h, i)
		}
	}
}

// vgHasFiniteAux reports whether the verb group contains a finite auxiliary
// (so "can ... be leveraged" counts as finite even though its head is VBN).
func vgHasFiniteAux(t *Tree, ch chunk) bool {
	for i := ch.start; i <= ch.end; i++ {
		if t.Tags[i].FiniteVerb() {
			return true
		}
	}
	return false
}

// finish guarantees the structural invariants: exactly one root when the
// sentence is non-empty, and every non-punctuation token attached.
func (a *attacher) finish() {
	t := a.tree
	if a.rootIdx < 0 {
		// no verb group became root: promote the first verb, else the
		// first subject-like noun, else the first non-punct token.
		cand := -1
		for i, tg := range t.Tags {
			if tg.IsVerb() {
				cand = i
				break
			}
		}
		if cand < 0 {
			for i, tg := range t.Tags {
				if tg != postag.PUNCT {
					cand = i
					break
				}
			}
		}
		if cand >= 0 {
			if t.head[cand] == -2 {
				a.attach(Root, -1, cand)
			} else {
				// walk up to the top of cand's chain and root that
				top := cand
				for t.head[top] >= 0 {
					top = t.head[top]
				}
				if t.head[top] == -2 {
					a.attach(Root, -1, top)
				}
			}
			a.rootIdx = t.RootIndex()
		}
	}
	if a.rootIdx < 0 {
		return
	}
	for i := range t.head {
		if t.head[i] == -2 && t.Tags[i] != postag.PUNCT && i != a.rootIdx {
			a.attach(Dep, a.rootIdx, i)
		}
	}
}
