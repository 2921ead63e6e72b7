package nlp

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/depparse"
	"repro/internal/obs"
	"repro/internal/postag"
	"repro/internal/srl"
	"repro/internal/textproc"
)

var testSentences = []string{
	"Avoid shared memory bank conflicts to maximize bandwidth.",
	"The number of threads per block should be chosen as a multiple of the warp size.",
	"It is recommended to overlap data transfers with kernel execution.",
	"Don't use clWaitForEvents() unless synchronization is required!",
	"In order to hide latency, launch enough warps per multiprocessor.",
	"",
}

// TestAnnotationMatchesLayers verifies that every eager field of an
// annotation equals what the underlying layer computes directly.
func TestAnnotationMatchesLayers(t *testing.T) {
	for _, s := range testSentences {
		ann := Annotate(s)
		words := textproc.Words(s)
		if !reflect.DeepEqual(ann.Tree.Words, words) {
			t.Errorf("words of %q = %v, want %v", s, ann.Tree.Words, words)
		}
		if !reflect.DeepEqual(ann.Tree.Tags, postag.Tags(words)) {
			t.Errorf("tags of %q mismatch", s)
		}
		if !reflect.DeepEqual(ann.Stems, textproc.StemAll(words)) {
			t.Errorf("Stems(%q) = %v, want %v", s, ann.Stems, textproc.StemAll(words))
		}
	}
}

// TestTermsMatchNormalizeTerms is the bit-exactness contract the index
// build relies on: annotation terms must equal textproc.NormalizeTerms on
// the raw text, element for element.
func TestTermsMatchNormalizeTerms(t *testing.T) {
	for _, s := range testSentences {
		got := Annotate(s).Terms()
		want := textproc.NormalizeTerms(s)
		if len(got) != len(want) {
			t.Fatalf("Terms(%q): %v, want %v", s, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Terms(%q)[%d] = %q, want %q", s, i, got[i], want[i])
			}
		}
	}
}

// TestLazyProductsMatchSRL verifies the lazily-computed purpose clauses
// equal a direct srl call on the same tree.
func TestLazyProductsMatchSRL(t *testing.T) {
	for _, s := range testSentences {
		ann := Annotate(s)
		if !reflect.DeepEqual(ann.Purposes(), srl.PurposeClauses(ann.Tree)) {
			t.Errorf("Purposes(%q) mismatch", s)
		}
		// memoized: the same slice comes back
		if len(ann.Purposes()) > 0 && &ann.Purposes()[0] != &ann.purposes[0] {
			t.Errorf("Purposes(%q) not memoized", s)
		}
	}
}

// TestQueryTerms pins the query-side annotation to the canonical
// normalization.
func TestQueryTerms(t *testing.T) {
	q := "How do I avoid divergent branches?"
	if !reflect.DeepEqual(QueryTerms(q), textproc.NormalizeTerms(q)) {
		t.Fatalf("QueryTerms(%q) = %v", q, QueryTerms(q))
	}
}

// TestAnnotateAllOrder checks that parallel annotation preserves order and
// equals annotating each sentence alone.
func TestAnnotateAllOrder(t *testing.T) {
	texts := make([]string, 100)
	for i := range texts {
		texts[i] = testSentences[i%len(testSentences)]
	}
	all := AnnotateAll(texts)
	if len(all) != len(texts) {
		t.Fatalf("length %d, want %d", len(all), len(texts))
	}
	for i, text := range texts {
		if all[i].Text != text {
			t.Fatalf("text %d: got %q", i, all[i].Text)
		}
		if !reflect.DeepEqual(all[i].Tree, Annotate(text).Tree) {
			t.Fatalf("tree %d differs between AnnotateAll and Annotate", i)
		}
	}
}

// TestFromTree wraps a pre-parsed tree and must agree with direct
// annotation of the same text.
func TestFromTree(t *testing.T) {
	s := testSentences[0]
	tree := depparse.ParseText(s)
	ann := FromTree(s, tree)
	direct := Annotate(s)
	if !reflect.DeepEqual(ann.Stems, direct.Stems) {
		t.Fatalf("FromTree stems %v, want %v", ann.Stems, direct.Stems)
	}
	if !reflect.DeepEqual(ann.Terms(), direct.Terms()) {
		t.Fatalf("FromTree terms %v, want %v", ann.Terms(), direct.Terms())
	}
}

// TestConcurrentLazyAccess hammers the lazy products from many goroutines;
// run with -race. Every reader must observe the same memoized values.
func TestConcurrentLazyAccess(t *testing.T) {
	ann := Annotate("The first step is to minimize data transfers with low bandwidth in order to improve throughput.")
	var wg sync.WaitGroup
	terms := ann.Terms() // reference values
	purposes := ann.Purposes()
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if !reflect.DeepEqual(ann.Terms(), terms) ||
					!reflect.DeepEqual(ann.Purposes(), purposes) {
					t.Error("lazy product changed under concurrency")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestAnnotateObservesEachStage: one Annotate call adds exactly one
// observation to each per-stage histogram /metricz reports — tokenise, tag,
// parse and stem, the build layers the north star names — so each count is
// the number of sentences annotated.
func TestAnnotateObservesEachStage(t *testing.T) {
	reg := obs.Default()
	hists := map[string]*obs.Histogram{}
	before := map[string]int64{}
	for _, name := range []string{"nlp_tokenize_micros", "nlp_tag_micros", "nlp_parse_micros", "nlp_stem_micros"} {
		hists[name] = reg.Histogram(name)
		before[name] = hists[name].Count()
	}

	Annotate(testSentences[0])

	for name, h := range hists {
		if got := h.Count() - before[name]; got != 1 {
			t.Errorf("%s: %d observations, want 1", name, got)
		}
	}
}
