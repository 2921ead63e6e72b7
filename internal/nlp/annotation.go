// Package nlp is the shared representation layer between Egeria's NLP
// passes: the annotate-once core. An Annotation carries everything the
// multi-layered Stage-I analysis derives from one sentence — tokens, POS
// tags and the dependency tree, Porter stems — plus two products computed
// on first use (retrieval terms and SRL purpose clauses), each materialized
// at most once and shared by every consumer: the selectors read the stems
// and purpose clauses, and the TF-IDF index reads the terms.
//
// An Annotation is a working value, not a stored one: the framework's build
// annotates a sentence, classifies it, keeps its Terms and drops the rest,
// so no parse tree outlives the pass that made it. Each build worker
// annotates into one Scratch, whose buffers every sentence it takes reuses.
//
// Annotations are safe for concurrent use: the eager fields are immutable
// after construction and the lazy products are guarded by sync.Once.
package nlp

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/depparse"
	"repro/internal/obs"
	"repro/internal/postag"
	"repro/internal/srl"
	"repro/internal/textproc"
)

// Per-stage annotation metrics, registered on the default registry so every
// annotation path (builds, selectors, tools) reports into one place. The
// histograms record one observation per sentence per stage, in microseconds,
// so each one's count is the number of sentences annotated.
var (
	tokenizeHist = obs.Default().Histogram("nlp_tokenize_micros")
	tagHist      = obs.Default().Histogram("nlp_tag_micros")
	parseHist    = obs.Default().Histogram("nlp_parse_micros")
	stemHist     = obs.Default().Histogram("nlp_stem_micros")
)

// Annotation is the full per-sentence analysis, produced once by Annotate
// and consumed by the selectors and the index build.
//
// An Annotation that Scratch.Annotate returns aliases the scratch: it, its
// Tree and its Stems are valid only until the scratch's next sentence. What
// Terms and Purposes return is the caller's own and stays valid.
type Annotation struct {
	Text  string // the raw sentence text
	Tree  *depparse.Tree
	Stems []string // Porter stem of every token (aligned with Tree.Words)

	termsOnce sync.Once
	terms     []string

	purposeOnce sync.Once
	purposes    []srl.Purpose
}

// Terms returns the sentence's retrieval term sequence: stopwords and
// punctuation dropped, remaining tokens stemmed, in a slice of exactly that
// length that shares nothing with the annotation. It is
// textproc.NormalizeWords over the sentence's tokens, whose stems the
// annotation already put in the stem memo, and is bit-exact with
// textproc.NormalizeTerms(a.Text), so an index built from annotation terms
// is identical to one built from the raw sentence texts.
func (a *Annotation) Terms() []string {
	a.termsOnce.Do(func() {
		a.terms = textproc.NormalizeWords(a.Tree.Words)
	})
	return a.terms
}

// Purposes returns the sentence's purpose clauses (SRL AM-PNC spans),
// computed on first use into a slice of their own. Selector 5's rule reads
// them, and so does the evidence that explains it.
func (a *Annotation) Purposes() []srl.Purpose {
	a.purposeOnce.Do(func() {
		a.purposes = srl.PurposeClauses(a.Tree)
	})
	return a.purposes
}

// AnnotateAll annotates every sentence across GOMAXPROCS workers; a single
// sentence takes Annotate. Work is distributed by an atomic counter (no
// per-item channel operations) and out[i] always corresponds to texts[i].
func AnnotateAll(texts []string) []*Annotation {
	n := len(texts)
	out := make([]*Annotation, n)
	workers := min(runtime.GOMAXPROCS(0), n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = Annotate(texts[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// Annotate annotates one sentence on a fresh Scratch, so the annotation is
// the caller's own.
func Annotate(text string) *Annotation { return new(Scratch).Annotate(text) }

// FromTree wraps an already-parsed sentence in an Annotation (text may be
// "" when only the tree is known; it is informational).
func FromTree(text string, tree *depparse.Tree) *Annotation {
	return &Annotation{
		Text:  text,
		Tree:  tree,
		Stems: textproc.StemAll(tree.Words),
	}
}

// QueryTerms is the query-side annotation: the normalized term sequence
// retrieval scores against (queries need no parse). It equals
// textproc.NormalizeTerms and exists so serving layers normalize a query
// exactly once and reuse the terms for cache keying and scoring.
func QueryTerms(query string) []string {
	return textproc.NormalizeTerms(query)
}

// Scratch is one Stage-I worker's reusable storage: the word, lowercase,
// tag and stem buffers, a dependency parser that owns its tree, and the
// annotation itself. Annotating a sentence into it allocates only what the
// buffers have not yet grown to hold. The zero value is ready to use; a
// Scratch serves one goroutine at a time.
type Scratch struct {
	words, lower, stems []string
	tags                []postag.Tag
	parser              depparse.Parser
	ann                 Annotation
}

// Annotate runs the four eager stages on text: tokenize, lowercase and tag,
// parse, stem. Each stage's latency is observed into its histogram, the
// per-component instrumentation the serving layer's /metricz reports. The
// result aliases s and is valid only until s's next Annotate.
func (s *Scratch) Annotate(text string) *Annotation {
	start := time.Now()
	s.words = textproc.AppendWords(s.words[:0], text)
	t1 := time.Now()
	s.lower = textproc.AppendLower(s.lower[:0], s.words)
	s.tags = postag.AppendTags(s.tags[:0], s.words, s.lower)
	t2 := time.Now()
	tree := s.parser.Parse(s.words, s.lower, s.tags)
	t3 := time.Now()
	s.stems = textproc.AppendStems(s.stems[:0], s.words)
	t4 := time.Now()
	tokenizeHist.ObserveDuration(t1.Sub(start))
	tagHist.ObserveDuration(t2.Sub(t1))
	parseHist.ObserveDuration(t3.Sub(t2))
	stemHist.ObserveDuration(t4.Sub(t3))
	s.ann = Annotation{Text: text, Tree: tree, Stems: s.stems}
	return &s.ann
}
