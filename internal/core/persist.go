package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"time"

	"repro/internal/htmldoc"
	"repro/internal/nlp"
	"repro/internal/selectors"
	"repro/internal/textproc"
	"repro/internal/vsm"
)

// snapshotVersion guards the on-disk format. Version-2 streams written while
// the index had partitions carry a Shards field, which gob skips on decode;
// version-1 streams load too.
const snapshotVersion = 2

// advisorSnapshot is the serialized form of an Advisor. The TF-IDF index is
// rebuilt on load from the stored per-sentence term lists (deterministic and
// far cheaper than re-normalizing text); what persistence buys is skipping
// Stage I, the expensive NLP pass over the document.
//
// Sentence identities ride along inside Sentences (htmldoc.Sentence.ID is a
// gob field); gob matches fields by name, so pre-identity snapshots decode
// with empty IDs and load re-stamps them — the ID is a pure function of the
// stored section paths and texts, so a re-stamp reproduces the original.
type advisorSnapshot struct {
	Version   int
	Threshold float64
	Title     string
	Sections  []htmldoc.Section
	Sentences []htmldoc.Sentence
	Advising  []AdvisingSentence
	// Terms holds the normalized retrieval terms per sentence. Older
	// snapshots lack it; load falls back to re-normalizing the text, which
	// produces the identical index (vsm.Build is NormalizeTerms +
	// BuildFromTerms).
	Terms [][]string
}

// Save serializes the advisor so it can be reloaded without re-running
// Stage I. The format is a versioned gob stream.
func (a *Advisor) Save(w io.Writer) error {
	terms := make([][]string, len(a.sentences))
	for i, s := range a.sentences {
		// the retained annotation's terms are bit-exact with NormalizeTerms;
		// prefer them so saving doesn't re-tokenize the document
		if i < len(a.anns) && a.anns[i] != nil {
			terms[i] = a.anns[i].Terms()
		} else {
			terms[i] = textproc.NormalizeTerms(s.Text)
		}
	}
	snap := advisorSnapshot{
		Version:   snapshotVersion,
		Threshold: a.threshold,
		Sentences: a.sentences,
		Advising:  a.advising,
		Terms:     terms,
	}
	if a.doc != nil {
		snap.Title = a.doc.Title
		snap.Sections = a.doc.Sections
	}
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("core: save advisor: %w", err)
	}
	return nil
}

// LoadAdvisor reconstructs an advisor from a Save stream, rebuilding the
// retrieval index from the stored sentences.
func LoadAdvisor(r io.Reader) (*Advisor, error) {
	var snap advisorSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("core: load advisor: %w", err)
	}
	if snap.Version < 1 || snap.Version > snapshotVersion {
		return nil, fmt.Errorf("core: snapshot version %d, want 1..%d", snap.Version, snapshotVersion)
	}
	if snap.Threshold <= 0 {
		return nil, fmt.Errorf("core: snapshot has invalid threshold %v", snap.Threshold)
	}
	a := &Advisor{
		sentences: snap.Sentences,
		advising:  snap.Advising,
		threshold: snap.Threshold,
		isAdv:     make([]bool, len(snap.Sentences)),
		rulePos:   make([]int32, len(snap.Sentences)),
		builtAt:   time.Now(),
		stats: BuildStats{
			Sentences:  len(snap.Sentences),
			Advising:   len(snap.Advising),
			BySelector: map[selectors.SelectorID]int{},
		},
	}
	for _, adv := range snap.Advising {
		a.stats.BySelector[adv.Selector]++
	}
	if snap.Title != "" || len(snap.Sections) > 0 {
		a.doc = htmldoc.FromBlocks(snap.Title, snap.Sections)
	}
	// stamp identities for pre-identity snapshots: the ID is a function of
	// the stored section path, text, and ordinal, so re-stamping reproduces
	// exactly the IDs the original build assigned
	a.sentences = htmldoc.StampIDs(a.doc, a.sentences)
	a.ids = htmldoc.IDsOf(a.sentences)
	// a rule out of order or out of step with its sentence would answer
	// with the wrong rule, so the snapshot is refused (the store reports
	// ErrCorrupt and the advisor is rebuilt)
	for i := range a.advising {
		adv := &a.advising[i]
		if adv.Index < 0 || adv.Index >= len(a.isAdv) {
			return nil, fmt.Errorf("core: snapshot advising index %d out of range", adv.Index)
		}
		if i > 0 && adv.Index <= a.advising[i-1].Index {
			return nil, fmt.Errorf("core: snapshot advising index %d follows %d, want strictly ascending",
				adv.Index, a.advising[i-1].Index)
		}
		if adv.Text != a.sentences[adv.Index].Text {
			return nil, fmt.Errorf("core: snapshot rule %d does not carry the text of sentence %d", i, adv.Index)
		}
		a.isAdv[adv.Index] = true
		a.rulePos[adv.Index] = int32(i)
		adv.wire = string(adv.appendWire(nil))
	}
	terms := snap.Terms
	if len(terms) > 0 {
		if len(terms) != len(snap.Sentences) {
			return nil, fmt.Errorf("core: snapshot has %d term lists for %d sentences",
				len(terms), len(snap.Sentences))
		}
		// term-only annotations make the loaded advisor a valid incremental
		// base: a warm-started source can still take the differential path
		a.anns = make([]*nlp.Annotation, len(a.sentences))
		for i, s := range a.sentences {
			a.anns[i] = nlp.FromSavedTerms(s.Text, terms[i])
		}
	} else {
		// no stored terms: the annotations are gone and rebuilding them here
		// would re-run the NLP pass Save exists to skip — leave anns nil
		// (HasIdentity false) so updates from this advisor take the full
		// path, and re-normalize the text for the index
		terms = make([][]string, len(snap.Sentences))
		for i, s := range snap.Sentences {
			terms[i] = textproc.NormalizeTerms(s.Text)
		}
	}
	a.index = vsm.BuildFromTerms(terms, a.isAdv)
	return a, nil
}
