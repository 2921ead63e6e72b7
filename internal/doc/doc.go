// Package doc defines the sentence-identity layer the incremental build
// pipeline rests on. Every stage that carries work across document versions
// — Stage-I verdicts, retrieval terms, Stage-II term counts, `egeria diff`
// — correlates sentences through their content rather than their position.
//
// A sentence is identified by exactly three things: its text, the path of
// the section containing it, and its occurrence ordinal among identical
// (section, text) pairs. Position is deliberately excluded, so inserting,
// deleting, moving, or editing sentences *elsewhere* never changes an
// untouched sentence's identity — the property that lets a rebuild
// re-annotate only what actually changed. Nothing is hashed or stored:
// Diff matches Keys in order of occurrence, which is the ordinal.
//
// Diff compares two versions of a document and partitions the sentences
// into Added, Removed, and Kept. Kept is a one-to-one position mapping:
// old index → new index.
package doc

// Key is what identifies one sentence besides its duplicate ordinal: its
// section path and its text.
type Key struct {
	Section string // section path ("5.4.2. Control Flow Instructions"; "" for bare sentences)
	Text    string
}

// Kept maps one sentence that survived a document edit: its position in the
// old sentence list and its position in the new one.
type Kept struct {
	Old, New int
}

// Diffs partitions a document edit by sentence identity. Every new-document
// index appears exactly once across Added and Kept, and every old-document
// index exactly once across Removed and Kept — Kept ∪ Added always
// reconstructs the new document.
type Diffs struct {
	OldLen, NewLen int
	Added          []int  // indices into the new sentence list
	Removed        []int  // indices into the old sentence list
	Kept           []Kept // old→new position pairs, ascending by New
}

// Diff compares the keys of two versions of a document. Equal keys are
// matched in order of occurrence: the n-th copy of a key in new keeps the
// n-th copy in old, and copies beyond the other list's count are Added or
// Removed. So a sentence keeps its identity exactly when its section, its
// text and the number of identical copies before it are unchanged.
//
// Kept is sized at its bound up front, and Added and Removed at their exact
// sizes once Kept is known, so no list grows by append.
func Diff(old, new []Key) Diffs {
	d := Diffs{OldLen: len(old), NewLen: len(new)}
	// head[k] is 1 + the first unmatched old position holding k (0: none
	// left); next[i] is 1 + the following old position holding old[i]'s
	// key, so each key's positions form a chain in document order
	head := make(map[Key]int, len(old))
	next := make([]int, len(old))
	for i := len(old) - 1; i >= 0; i-- {
		next[i] = head[old[i]]
		head[old[i]] = i + 1
	}
	matched := make([]bool, len(old))
	d.Kept = make([]Kept, 0, min(len(old), len(new)))
	for j, k := range new {
		if h := head[k]; h > 0 {
			i := h - 1
			head[k] = next[i]
			matched[i] = true
			d.Kept = append(d.Kept, Kept{Old: i, New: j})
		}
	}
	// Kept ascends by New, so one merge walk finds the new positions it
	// leaves out
	d.Added = make([]int, 0, len(new)-len(d.Kept))
	k := 0
	for j := range new {
		if k < len(d.Kept) && d.Kept[k].New == j {
			k++
			continue
		}
		d.Added = append(d.Added, j)
	}
	d.Removed = make([]int, 0, len(old)-len(d.Kept))
	for i, m := range matched {
		if !m {
			d.Removed = append(d.Removed, i)
		}
	}
	return d
}

// ChangeRatio is the fraction of the document the edit touched:
// (added + removed) / max(oldLen, newLen). A no-op edit is 0; a complete
// rewrite approaches 2 (everything removed plus everything added).
// `egeria diff` reports it.
func (d Diffs) ChangeRatio() float64 {
	n := d.OldLen
	if d.NewLen > n {
		n = d.NewLen
	}
	if n == 0 {
		return 0
	}
	return float64(len(d.Added)+len(d.Removed)) / float64(n)
}

// ReuseRatio is the fraction of the new document whose sentences carried
// over: kept / newLen (1 for an identical document, 0 for a full rewrite or
// an empty new document).
func (d Diffs) ReuseRatio() float64 {
	if d.NewLen == 0 {
		return 0
	}
	return float64(len(d.Kept)) / float64(d.NewLen)
}
