// Package doc defines the canonical sentence-identity layer the incremental
// build pipeline rests on. Every stage of the framework — extraction,
// annotation, Stage-I classification, Stage-II indexing, persistence, and
// the corpus lifecycle — correlates sentences across document versions
// through a SentenceID rather than a positional index.
//
// A SentenceID is a function of exactly three things: the sentence's text,
// the path of the section containing it, and its occurrence ordinal among
// identical (section, text) pairs. It deliberately excludes the sentence's
// position in the document, so inserting, deleting, moving, or editing
// sentences *elsewhere* never changes an untouched sentence's identity —
// the property that lets a rebuild re-annotate only what actually changed.
//
// Diff compares two versions of a document by identity and partitions the
// sentences into Added, Removed, and Kept. Within one document IDs are
// unique by construction (the ordinal disambiguates duplicates), so Kept is
// a one-to-one position mapping: old index → new index.
package doc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// SentenceID is the stable identity of one sentence: a hex digest of the
// sentence text, its section path, and its occurrence ordinal among
// identical (section, text) pairs in the same document. The empty string
// means "identity not assigned".
type SentenceID string

// Key is the identity-bearing content of one sentence — everything that
// goes into its SentenceID besides the duplicate ordinal.
type Key struct {
	Section string // section path ("5.4.2. Control Flow Instructions"; "" for bare sentences)
	Text    string
}

// idBytes is how many digest bytes an ID keeps. 16 bytes (128 bits) makes
// accidental collisions across document versions vanishingly unlikely while
// keeping IDs short enough to read in logs and diff output.
const idBytes = 16

// New computes the identity of one sentence. ordinal is the number of
// earlier sentences in the same document with an identical Key (0 for the
// first occurrence). Fields are length-prefixed before hashing so no two
// distinct (section, text, ordinal) triples can collide by concatenation.
func New(k Key, ordinal int) SentenceID {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(k.Section)))
	h.Write(buf[:])
	h.Write([]byte(k.Section))
	binary.LittleEndian.PutUint64(buf[:], uint64(len(k.Text)))
	h.Write(buf[:])
	h.Write([]byte(k.Text))
	binary.LittleEndian.PutUint64(buf[:], uint64(ordinal))
	h.Write(buf[:])
	sum := h.Sum(nil)
	return SentenceID(hex.EncodeToString(sum[:idBytes]))
}

// Assign computes the identity of every sentence of a document, in order.
// Ordinals are assigned per distinct Key by first occurrence, so the IDs of
// a document's sentences are pairwise distinct, and a sentence's ID only
// changes when the sentence itself, its section, or the number of identical
// copies *before* it changes.
func Assign(keys []Key) []SentenceID {
	ids := make([]SentenceID, len(keys))
	seen := make(map[Key]int, len(keys))
	for i, k := range keys {
		ids[i] = New(k, seen[k])
		seen[k]++
	}
	return ids
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

// Diff compares two sentence-identity lists. IDs within each list are
// assumed unique (what Assign guarantees); if a duplicate does appear, the
// first occurrence wins and the rest are treated as added/removed.
//
// Kept is sized at its bound up front, and Added and Removed at their exact
// sizes once Kept is known, so no list grows by append.
func Diff(old, new []SentenceID) Diffs {
	d := Diffs{OldLen: len(old), NewLen: len(new)}
	oldByID := make(map[SentenceID]int, len(old))
	for i := len(old) - 1; i >= 0; i-- { // first occurrence wins
		oldByID[old[i]] = i
	}
	matched := make([]bool, len(old))
	d.Kept = make([]Kept, 0, min(len(old), len(new)))
	for j, id := range new {
		if i, ok := oldByID[id]; ok && id != "" && !matched[i] {
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
