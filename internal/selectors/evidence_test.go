package selectors

import (
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/nlp"
)

func evidenceFor(t *testing.T, sentence string) []Evidence {
	t.Helper()
	return Default().ExplainAnnotated(nlp.Annotate(sentence))
}

func TestExplainFlaggingPhrase(t *testing.T) {
	ev := evidenceFor(t, "Buffers are a good choice for streaming writes.")
	if len(ev) == 0 || ev[0].Selector != Keyword {
		t.Fatalf("evidence: %+v", ev)
	}
	if !strings.Contains(ev[0].Detail, "good choice") {
		t.Errorf("detail %q", ev[0].Detail)
	}
}

// TestExplainNamesTheMatchedPhrase: a configuration may hold a phrase with
// no words (Merge keeps " "), which can match nothing; the evidence must
// still name the phrase that matched, not the one at its position in the
// configuration.
func TestExplainNamesTheMatchedPhrase(t *testing.T) {
	r := New(DefaultConfig().Merge(Config{FlaggingWords: []string{" ", "streaming writes"}}))
	ev := r.ExplainAnnotated(nlp.Annotate("Buffers suit streaming writes."))
	if len(ev) == 0 || ev[0] != (Evidence{Selector: Keyword, Detail: `flagging phrase "streaming writes"`}) {
		t.Errorf("evidence: %+v", ev)
	}
}

func TestExplainXcomp(t *testing.T) {
	ev := evidenceFor(t, "It is recommended to queue kernels in batches.")
	found := false
	for _, e := range ev {
		if e.Selector == Comparative && strings.Contains(e.Detail, "xcomp(recommended, queue)") {
			found = true
		}
	}
	if !found {
		t.Errorf("evidence: %+v", ev)
	}
}

func TestExplainImperative(t *testing.T) {
	ev := evidenceFor(t, "Avoid bank conflicts in shared memory.")
	found := false
	for _, e := range ev {
		if e.Selector == Imperative && strings.Contains(e.Detail, `"Avoid"`) {
			found = true
		}
	}
	if !found {
		t.Errorf("evidence: %+v", ev)
	}
}

func TestExplainSubjectAndPurpose(t *testing.T) {
	ev := evidenceFor(t, "Developers can restructure the loop nest to minimize traffic.")
	var sawSubject, sawPurpose bool
	for _, e := range ev {
		if e.Selector == Subject && strings.Contains(e.Detail, `"developer"`) {
			sawSubject = true
		}
		if e.Selector == Purpose && strings.Contains(e.Detail, `"minimize"`) {
			sawPurpose = true
		}
	}
	if !sawSubject || !sawPurpose {
		t.Errorf("evidence: %+v", ev)
	}
}

func TestExplainEmptyForPlainSentences(t *testing.T) {
	if ev := evidenceFor(t, "The warp size is thirty-two threads."); len(ev) != 0 {
		t.Errorf("unexpected evidence: %+v", ev)
	}
}

// TestExplainConsistentWithClassify: the verdict, the per-selector
// decisions and the evidence all come from one matcher, so over a few
// hand-picked sentences and every sentence of the three guides, under
// both configurations, evidence is non-empty exactly when
// ClassifyAnnotated says advising, the first evidence names the verdict's
// selector, and selector k alone accepts the sentence exactly when some
// evidence names k (once, in selector order).
func TestExplainConsistentWithClassify(t *testing.T) {
	sentences := []string{
		"Buffers are a good choice for streaming writes.",
		"Avoid bank conflicts in shared memory.",
		"It is recommended to queue kernels in batches.",
		"The warp size is thirty-two threads.",
		"Developers can tune the launch configuration.",
		"The first step is to minimize data transfers with low bandwidth.",
		"Each bank serves one request per cycle.",
	}
	for _, reg := range []corpus.Register{corpus.CUDA, corpus.OpenCL, corpus.XeonPhi} {
		sentences = append(sentences, corpus.Generate(reg, 1).Texts()...)
	}
	for _, cfg := range []Config{DefaultConfig(), XeonTunedConfig()} {
		r := New(cfg)
		for _, s := range sentences {
			ann := nlp.Annotate(s)
			res := r.ClassifyAnnotated(ann)
			ev := r.ExplainAnnotated(ann)
			if res.Advising != (len(ev) > 0) {
				t.Fatalf("%q: advising=%v but %d evidence entries", s, res.Advising, len(ev))
			}
			if res.Advising && ev[0].Selector != res.Selector {
				t.Fatalf("%q: verdict selector %v but first evidence %v", s, res.Selector, ev[0].Selector)
			}
			named := map[SelectorID]bool{}
			for i, e := range ev {
				if i > 0 && e.Selector <= ev[i-1].Selector {
					t.Fatalf("%q: evidence out of selector order: %+v", s, ev)
				}
				named[e.Selector] = true
			}
			for k := Keyword; k <= Purpose; k++ {
				if got := r.SelectorAnnotated(int(k), ann); got != named[k] {
					t.Fatalf("%q: selector %d alone says %v, evidence %+v", s, k, got, ev)
				}
			}
		}
	}
}
