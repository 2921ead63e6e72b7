// Package srl implements shallow semantic role labeling specialized for the
// roles Egeria's fifth selector consumes: predicates (V), core arguments
// (A0 subject, A1 object) and — critically — AM-PNC purpose adjuncts
// ("to minimize data transfers", "in order to hide latency", "so as to
// avoid bank conflicts", "for maximizing occupancy"). It replaces SENNA in
// the original implementation; the paper notes that purpose roles are the
// high-accuracy subset of SRL (88.2%), and a rule system over the dependency
// analysis recovers them reliably in the programming-guide register.
package srl

import (
	"strings"

	"repro/internal/depparse"
	"repro/internal/postag"
	"repro/internal/textproc"
)

// Role is a PropBank-style semantic role label.
type Role string

// Supported roles.
const (
	V     Role = "V"      // the predicate itself
	A0    Role = "A0"     // proto-agent (subject)
	A1    Role = "A1"     // proto-patient (object / passive subject)
	AMPNC Role = "AM-PNC" // purpose
	AMNEG Role = "AM-NEG" // negation
	AMMOD Role = "AM-MOD" // modal
	AMADV Role = "AM-ADV" // adverbial
)

// Argument is a labeled token span of one predicate's frame.
type Argument struct {
	Role  Role
	Start int // first token index (inclusive)
	End   int // last token index (inclusive)
}

// Frame is the predicate-argument structure centered on one verb.
type Frame struct {
	Predicate int // token index of the predicate verb
	Lemma     string
	Args      []Argument
}

// ArgsByRole returns the frame's arguments carrying the given role.
func (f *Frame) ArgsByRole(role Role) []Argument {
	var out []Argument
	for _, a := range f.Args {
		if a.Role == role {
			out = append(out, a)
		}
	}
	return out
}

// Purpose is a purpose clause found in a sentence: the adjunct span plus the
// predicate verb inside it.
type Purpose struct {
	Start     int // span start (the "to"/"for"/"in order" opener)
	End       int // span end (inclusive)
	Predicate int // token index of the purpose clause's predicate
}

// controlVerbs take an infinitival complement that is their object (A1), not
// a purpose adjunct: "wants to run", "tends to diverge".
var controlVerbs = map[string]bool{
	"want": true, "need": true, "try": true, "attempt": true, "tend": true,
	"begin": true, "start": true, "continue": true, "fail": true,
	"decide": true, "plan": true, "intend": true, "expect": true,
	"seem": true, "appear": true, "like": true, "wish": true, "hope": true,
}

// Label produces the predicate-argument frames of one parsed sentence.
func Label(tree *depparse.Tree) []Frame {
	n := len(tree.Words)
	if n == 0 {
		return nil
	}
	purposes := PurposeClauses(tree)
	var frames []Frame
	for v := 0; v < n; v++ {
		if !isFramePredicate(tree, v) {
			continue
		}
		f := Frame{
			Predicate: v,
			Lemma:     textproc.Lemma(tree.Words[v], textproc.VerbClass),
		}
		f.Args = append(f.Args, Argument{Role: V, Start: v, End: v})
		// core arguments from the dependency tree
		for _, r := range tree.Relations {
			if r.Governor != v {
				continue
			}
			switch r.Type {
			case depparse.Nsubj:
				s, e := subtreeSpan(tree, r.Dependent, v)
				f.Args = append(f.Args, Argument{Role: A0, Start: s, End: e})
			case depparse.Nsubjpass, depparse.Dobj:
				s, e := subtreeSpan(tree, r.Dependent, v)
				f.Args = append(f.Args, Argument{Role: A1, Start: s, End: e})
			case depparse.Neg:
				f.Args = append(f.Args, Argument{Role: AMNEG, Start: r.Dependent, End: r.Dependent})
			case depparse.Aux:
				if tree.Tags[r.Dependent] == postag.MD {
					f.Args = append(f.Args, Argument{Role: AMMOD, Start: r.Dependent, End: r.Dependent})
				}
			case depparse.Advmod:
				f.Args = append(f.Args, Argument{Role: AMADV, Start: r.Dependent, End: r.Dependent})
			}
		}
		// purpose adjuncts governed by this predicate
		for _, p := range purposes {
			if governingPredicate(tree, p, purposes) == v {
				f.Args = append(f.Args, Argument{Role: AMPNC, Start: p.Start, End: p.End})
			}
		}
		frames = append(frames, f)
	}
	return frames
}

// isFramePredicate reports whether token v heads a predicate frame: a verb
// that is not a bare auxiliary of another verb.
func isFramePredicate(tree *depparse.Tree, v int) bool {
	if !tree.Tags[v].IsVerb() {
		return false
	}
	switch tree.RelationTo(v) {
	case depparse.Aux, depparse.Auxpass, depparse.Cop, depparse.Amod,
		depparse.Mark, depparse.Nn:
		return false
	}
	// a premodifier participle inside an NP is not a predicate
	if tree.RelationTo(v) == depparse.Dep && tree.HeadOf(v) >= 0 &&
		tree.Tags[tree.HeadOf(v)].IsNoun() {
		return false
	}
	return true
}

// subtreeSpan returns the contiguous token span covered by head's dependency
// subtree, never crossing the predicate token.
func subtreeSpan(tree *depparse.Tree, head, predicate int) (int, int) {
	n := len(tree.Words)
	inSub := make([]bool, n)
	inSub[head] = true
	// iterate to fixpoint: token joins if its governor is in the subtree
	for changed := true; changed; {
		changed = false
		for _, r := range tree.Relations {
			if r.Governor >= 0 && inSub[r.Governor] && r.Dependent != predicate && !inSub[r.Dependent] {
				inSub[r.Dependent] = true
				changed = true
			}
		}
	}
	start, end := head, head
	for i := 0; i < n; i++ {
		if inSub[i] {
			if i < start {
				start = i
			}
			if i > end {
				end = i
			}
		}
	}
	// clip at the predicate so spans stay on one side of it
	if predicate >= 0 {
		if start <= predicate && predicate <= end {
			if head < predicate {
				end = predicate - 1
			} else {
				start = predicate + 1
			}
		}
	}
	return start, end
}

// PurposeClauses finds every purpose adjunct in the sentence using surface
// patterns over tokens and tags:
//
//	(in order | so as)? to VB ...     — infinitival purpose
//	for (the purpose of)? VBG ...     — gerundive purpose
//
// Infinitival complements of control verbs ("tends to diverge") are excluded.
func PurposeClauses(tree *depparse.Tree) []Purpose {
	words := tree.Words
	tags := tree.Tags
	n := len(words)
	var out []Purpose
	for i := 0; i < n; i++ {
		lw := strings.ToLower(words[i])
		if lw == "to" {
			j := i + 1
			for j < n && tags[j].IsAdverb() {
				j++
			}
			if j >= n || tags[j] != postag.VB {
				continue
			}
			start := i
			// absorb "in order" / "so as" openers
			if i >= 2 {
				w1 := strings.ToLower(words[i-2])
				w2 := strings.ToLower(words[i-1])
				if (w1 == "in" && w2 == "order") || (w1 == "so" && w2 == "as") {
					start = i - 2
				}
			}
			// exclude control-verb complements
			if start == i && isControlComplement(tree, i) {
				continue
			}
			out = append(out, Purpose{Start: start, End: clauseEnd(tree, j), Predicate: j})
			i = j
			continue
		}
		if lw == "for" && i+1 < n {
			k := i + 1
			if strings.ToLower(words[k]) == "the" && k+2 < n &&
				strings.ToLower(words[k+1]) == "purpose" && strings.ToLower(words[k+2]) == "of" {
				k += 3
			}
			if k < n && tags[k] == postag.VBG {
				out = append(out, Purpose{Start: i, End: clauseEnd(tree, k), Predicate: k})
				i = k
			}
		}
	}
	return out
}

// isControlComplement reports whether the infinitive at "to" (index toIdx)
// complements a control verb directly to its left.
func isControlComplement(tree *depparse.Tree, toIdx int) bool {
	for j := toIdx - 1; j >= 0 && toIdx-j <= 2; j-- {
		if tree.Tags[j].IsAdverb() {
			continue
		}
		if tree.Tags[j].IsVerb() {
			return controlVerbs[textproc.Lemma(tree.Words[j], textproc.VerbClass)]
		}
		return false
	}
	return false
}

// clauseEnd scans from the purpose predicate to the end of its clause: the
// next top-level comma, semicolon, or sentence end.
func clauseEnd(tree *depparse.Tree, from int) int {
	n := len(tree.Words)
	end := n - 1
	for k := from; k < n; k++ {
		w := tree.Words[k]
		if w == "," || w == ";" || w == ":" {
			return k - 1
		}
	}
	// trim trailing sentence punctuation
	for end > from && tree.Tags[end] == postag.PUNCT {
		end--
	}
	return end
}

// governingPredicate decides which verb a purpose adjunct modifies: the
// nearest preceding frame predicate outside any purpose span; for a
// sentence-initial purpose clause, the first main-clause verb after it.
func governingPredicate(tree *depparse.Tree, p Purpose, all []Purpose) int {
	inPurpose := func(i int) bool {
		for _, q := range all {
			if i >= q.Start && i <= q.End {
				return true
			}
		}
		return false
	}
	for i := p.Start - 1; i >= 0; i-- {
		if inPurpose(i) {
			continue
		}
		if tree.Tags[i].IsVerb() && isFramePredicate(tree, i) {
			return i
		}
	}
	for i := p.End + 1; i < len(tree.Words); i++ {
		if inPurpose(i) {
			continue
		}
		if tree.Tags[i].IsVerb() && isFramePredicate(tree, i) {
			return i
		}
	}
	return -1
}

// SpanText renders the token span [start,end] of the tree as a string.
func SpanText(tree *depparse.Tree, start, end int) string {
	if start < 0 {
		start = 0
	}
	if end >= len(tree.Words) {
		end = len(tree.Words) - 1
	}
	if start > end {
		return ""
	}
	return strings.Join(tree.Words[start:end+1], " ")
}
