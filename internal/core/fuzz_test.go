package core

import (
	"bytes"
	"testing"

	"repro/internal/corpus"
)

// FuzzLoadAdvisor feeds arbitrary bytes to the snapshot decoder. The
// contract under test: corrupt input of any shape — truncated gob streams,
// flipped bits, version skew, non-gob garbage — must come back as an error,
// never a panic; and anything that does decode must yield a usable advisor
// (rules enumerable, queries answerable) with internally consistent
// advising indices — rules strictly ascending, and every answer carrying
// the text of the sentence it names — that is an incremental base for
// every one of its sentences. The checked-in seed corpus
// (testdata/fuzz/FuzzLoadAdvisor, regenerate with `go run ./tools/fuzzseed`)
// starts the fuzzer from real snapshots and their corrupted variants.
func FuzzLoadAdvisor(f *testing.F) {
	g := corpus.GenerateSized(corpus.CUDA, 40, 0.3, 17)
	fw := New()
	adv := fw.BuildFromSentences(g.Doc, g.Sentences)
	var buf bytes.Buffer
	if err := adv.Save(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte("not a gob stream"))
	mutated := bytes.Clone(valid)
	mutated[len(mutated)/4] ^= 0x55
	f.Add(mutated)

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := LoadAdvisor(bytes.NewReader(data))
		if err != nil {
			if a != nil {
				t.Fatal("LoadAdvisor returned both an advisor and an error")
			}
			return
		}
		// a successfully decoded snapshot must be fully usable
		rules := a.Rules()
		for i, r := range rules {
			if r.Index < 0 || r.Index >= a.SentenceCount() {
				t.Fatalf("rule %d: advising index %d outside %d sentences", i, r.Index, a.SentenceCount())
			}
			if !a.IsAdvising(r.Index) {
				t.Fatalf("rule %d: index %d not marked advising", i, r.Index)
			}
			if i > 0 && r.Index <= rules[i-1].Index {
				t.Fatalf("rule %d: index %d after %d, want strictly ascending", i, r.Index, rules[i-1].Index)
			}
		}
		for _, ans := range a.Query("reduce global memory latency") {
			if ans.Sentence.Text != a.SentenceText(ans.Sentence.Index) {
				t.Fatalf("answer at sentence %d carries %q, the sentence is %q",
					ans.Sentence.Index, ans.Sentence.Text, a.SentenceText(ans.Sentence.Index))
			}
		}
		assertReusesAll(t, fw, a)
	})
}
