package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"time"

	"repro/internal/htmldoc"
	"repro/internal/selectors"
	"repro/internal/vsm"
)

// snapshotVersion guards the on-disk format: LoadAdvisor accepts this
// version only. gob skips a field the receiving type lacks, so two older
// shapes of version 2 still load: streams written while the index had
// partitions carry a Shards field, and streams written while sentences
// carried a stored identity carry a Sentence.ID field.
const snapshotVersion = 2

// advisorSnapshot is the serialized form of an Advisor. The TF-IDF index is
// rebuilt on load from the stored per-sentence term lists (deterministic and
// far cheaper than re-normalizing text); what persistence buys is skipping
// Stage I, the expensive NLP pass over the document.
//
// Sections and Sentences are all a sentence's identity is derived from
// (Advisor.Diff), so a loaded advisor is the base of an incremental rebuild
// with nothing else stored.
type advisorSnapshot struct {
	Version   int
	Threshold float64
	Title     string
	Sections  []htmldoc.Section
	Sentences []htmldoc.Sentence
	Advising  []AdvisingSentence
	Terms     [][]string // normalized retrieval terms, one list per sentence
}

// Save serializes the advisor so it can be reloaded without re-running
// Stage I. The format is a versioned gob stream.
func (a *Advisor) Save(w io.Writer) error {
	snap := advisorSnapshot{
		Version:   snapshotVersion,
		Threshold: a.threshold,
		Sentences: a.sentences,
		Advising:  a.advising,
		Terms:     a.terms,
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
// retrieval index from the stored term lists. It refuses any other snapshot
// version and a stream without one term list per sentence, so every loaded
// advisor is the base of an incremental rebuild.
func LoadAdvisor(r io.Reader) (*Advisor, error) {
	var snap advisorSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("core: load advisor: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("core: snapshot version %d, want %d", snap.Version, snapshotVersion)
	}
	if snap.Threshold <= 0 {
		return nil, fmt.Errorf("core: snapshot has invalid threshold %v", snap.Threshold)
	}
	if len(snap.Terms) != len(snap.Sentences) {
		return nil, fmt.Errorf("core: snapshot has %d term lists for %d sentences",
			len(snap.Terms), len(snap.Sentences))
	}
	a := &Advisor{
		sentences: snap.Sentences,
		terms:     snap.Terms,
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
	a.index = vsm.BuildFromTerms(snap.Terms, a.isAdv)
	return a, nil
}
