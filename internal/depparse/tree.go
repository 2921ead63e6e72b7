// Package depparse implements a deterministic, rule-based typed dependency
// parser producing the Stanford-dependencies relation subset that Egeria's
// selectors consume: root, nsubj, nsubjpass, xcomp, dobj, det, amod, nn,
// aux, auxpass, cop, mark, advmod, prep, pobj, cc, conj, advcl, ccomp, neg,
// num, acomp. It replaces the Stanford CoreNLP dependency parser used by the
// original implementation. The parser is a chunk-then-attach design: noun
// phrases and verb groups are chunked over POS tags, then clause structure
// is assembled and relations emitted.
package depparse

import (
	"fmt"
	"strings"

	"repro/internal/postag"
	"repro/internal/textproc"
)

// RelType names a typed dependency relation.
type RelType string

// The emitted relation inventory (Stanford dependencies naming).
const (
	Root      RelType = "root"
	Nsubj     RelType = "nsubj"
	Nsubjpass RelType = "nsubjpass"
	Xcomp     RelType = "xcomp"
	Dobj      RelType = "dobj"
	Det       RelType = "det"
	Amod      RelType = "amod"
	Nn        RelType = "nn"
	Aux       RelType = "aux"
	Auxpass   RelType = "auxpass"
	Cop       RelType = "cop"
	Mark      RelType = "mark"
	Advmod    RelType = "advmod"
	Prep      RelType = "prep"
	Pobj      RelType = "pobj"
	Cc        RelType = "cc"
	Conj      RelType = "conj"
	Advcl     RelType = "advcl"
	Ccomp     RelType = "ccomp"
	Neg       RelType = "neg"
	Num       RelType = "num"
	Acomp     RelType = "acomp"
	Poss      RelType = "poss"
	Dep       RelType = "dep"
)

// Relation is one typed dependency edge. Governor == -1 denotes the virtual
// ROOT node.
type Relation struct {
	Type      RelType
	Governor  int
	Dependent int
}

// Tree is the dependency analysis of one sentence.
type Tree struct {
	Words     []string
	Tags      []postag.Tag
	Relations []Relation
	head      []int     // head token index per token; -1 root; -2 unattached
	relOf     []RelType // relation to head per token
}

// ParseText tokenizes, tags and parses a single sentence.
func ParseText(sentence string) *Tree {
	words := textproc.Words(sentence)
	return ParseWords(words)
}

// ParseWords tags and parses a pre-tokenized sentence.
func ParseWords(words []string) *Tree {
	return ParseTagged(words, postag.Tags(words))
}

// Word returns the token text at index i, or "ROOT" for -1.
func (t *Tree) Word(i int) string {
	if i < 0 {
		return "ROOT"
	}
	return t.Words[i]
}

// Lemma returns the lemma of token i steered by its POS tag.
func (t *Tree) Lemma(i int) string {
	if i < 0 || i >= len(t.Words) {
		return ""
	}
	switch {
	case t.Tags[i].IsVerb():
		return textproc.Lemma(t.Words[i], textproc.VerbClass)
	case t.Tags[i].IsNoun():
		return textproc.Lemma(t.Words[i], textproc.NounClass)
	case t.Tags[i].IsAdjective():
		return textproc.Lemma(t.Words[i], textproc.AdjClass)
	}
	return strings.ToLower(t.Words[i])
}

// RootIndex returns the token index of the root, or -1 when the sentence has
// no tokens.
func (t *Tree) RootIndex() int {
	for _, r := range t.Relations {
		if r.Type == Root {
			return r.Dependent
		}
	}
	return -1
}

// RelationsOfType returns all relations with the given type.
func (t *Tree) RelationsOfType(rt RelType) []Relation {
	var out []Relation
	for _, r := range t.Relations {
		if r.Type == rt {
			out = append(out, r)
		}
	}
	return out
}

// HeadOf returns the head token index of token i (-1 for the root token).
func (t *Tree) HeadOf(i int) int {
	if i < 0 || i >= len(t.head) {
		return -2
	}
	return t.head[i]
}

// RelationTo returns the relation type linking token i to its head.
func (t *Tree) RelationTo(i int) RelType {
	if i < 0 || i >= len(t.relOf) {
		return Dep
	}
	return t.relOf[i]
}

// HasSubject reports whether token i governs an nsubj or nsubjpass relation.
func (t *Tree) HasSubject(i int) bool {
	for _, r := range t.Relations {
		if (r.Type == Nsubj || r.Type == Nsubjpass) && r.Governor == i {
			return true
		}
	}
	return false
}

// AllSubjects returns the dependents of every nsubj relation in the tree.
func (t *Tree) AllSubjects() []int {
	var out []int
	for _, r := range t.Relations {
		if r.Type == Nsubj {
			out = append(out, r.Dependent)
		}
	}
	return out
}

// ConjOfRoot reports whether token v is the root, or a clause head joined
// to it by a chain of conj relations ("..., so avoid ..."), following v's
// heads while each edge is conj. The imperative selector asks it of every
// verb, so it allocates nothing.
func (t *Tree) ConjOfRoot(v int) bool {
	for v >= 0 && v < len(t.head) {
		switch {
		case t.head[v] == -1:
			return true
		case t.relOf[v] != Conj:
			return false
		}
		v = t.head[v]
	}
	return false
}

// String renders the relations in the conventional
// reltype(governor-idx, dependent-idx) format, one per line.
func (t *Tree) String() string {
	var b strings.Builder
	for _, r := range t.Relations {
		fmt.Fprintf(&b, "%s(%s-%d, %s-%d)\n",
			r.Type, t.Word(r.Governor), r.Governor+1, t.Word(r.Dependent), r.Dependent+1)
	}
	return b.String()
}
