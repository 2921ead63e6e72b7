package postag

import (
	"testing"
	"testing/quick"

	"repro/internal/textproc"
)

// tagOf returns the tag assigned to the first occurrence of word in sentence.
func tagOf(t *testing.T, sentence, word string) Tag {
	t.Helper()
	words := textproc.Words(sentence)
	tags := Tags(words)
	for i, w := range words {
		if w == word {
			return tags[i]
		}
	}
	t.Fatalf("word %q not found in %q (tokens %v)", word, sentence, words)
	return ""
}

func TestTagClosedClass(t *testing.T) {
	s := "The kernel can often be faster if it uses the shared memory."
	checks := map[string]Tag{
		"The": DT, "can": MD, "often": RB, "if": IN, "it": PRP, "the": DT,
	}
	for w, want := range checks {
		if got := tagOf(t, s, w); got != want {
			t.Errorf("tag(%q) = %v, want %v", w, got, want)
		}
	}
}

func TestTagImperative(t *testing.T) {
	cases := []struct {
		sentence string
		verb     string
	}{
		{"Use shared memory to reduce global memory traffic.", "Use"},
		{"Avoid bank conflicts in shared memory.", "Avoid"},
		{"Unroll the inner loop to reduce instruction overhead.", "Unroll"},
		{"Align the data to the transaction size.", "Align"},
		{"Ensure that all accesses are coalesced.", "Ensure"},
		{"Pack small transfers into one larger transfer.", "Pack"},
	}
	for _, c := range cases {
		if got := tagOf(t, c.sentence, c.verb); got != VB {
			t.Errorf("imperative %q in %q tagged %v, want VB", c.verb, c.sentence, got)
		}
	}
}

func TestTagNotImperative(t *testing.T) {
	// Sentence-initial noun/verb-ambiguous words with a finite verb later
	// must stay nominal.
	cases := []struct {
		sentence string
		word     string
	}{
		{"Bank conflicts hurt the performance of shared memory.", "Bank"},
		{"Pinning takes time, so avoid incurring pinning costs.", "Pinning"},
		{"Register usage can be controlled using the maxrregcount compiler option.", "Register"},
	}
	for _, c := range cases {
		got := tagOf(t, c.sentence, c.word)
		if got == VB {
			t.Errorf("%q in %q wrongly tagged VB", c.word, c.sentence)
		}
	}
}

func TestTagModalComplement(t *testing.T) {
	s := "A developer may prefer using buffers instead of images."
	if got := tagOf(t, s, "prefer"); got != VB {
		t.Errorf("prefer tagged %v, want VB", got)
	}
	if got := tagOf(t, s, "using"); got != VBG {
		t.Errorf("using tagged %v, want VBG", got)
	}
	if got := tagOf(t, s, "developer"); got != NN {
		t.Errorf("developer tagged %v, want NN", got)
	}
}

func TestTagPassive(t *testing.T) {
	s := "This synchronization guarantee can often be leveraged to avoid explicit calls between command submissions."
	if got := tagOf(t, s, "leveraged"); got != VBN {
		t.Errorf("leveraged tagged %v, want VBN", got)
	}
	if got := tagOf(t, s, "be"); got != VB {
		t.Errorf("be tagged %v, want VB", got)
	}
	if got := tagOf(t, s, "avoid"); got != VB {
		t.Errorf("avoid tagged %v, want VB", got)
	}
	if got := tagOf(t, s, "calls"); got != NNS {
		t.Errorf("calls tagged %v, want NNS", got)
	}
}

func TestTagPassiveIsNeeded(t *testing.T) {
	s := "A developer may prefer buffers if no sampling operation is needed."
	if got := tagOf(t, s, "needed"); got != VBN {
		t.Errorf("needed tagged %v, want VBN", got)
	}
	if got := tagOf(t, s, "is"); got != VBZ {
		t.Errorf("is tagged %v, want VBZ", got)
	}
}

func TestTagInfinitivePurpose(t *testing.T) {
	s := "The first step is to minimize data transfers with low bandwidth."
	if got := tagOf(t, s, "to"); got != TO {
		t.Errorf("to tagged %v, want TO", got)
	}
	if got := tagOf(t, s, "minimize"); got != VB {
		t.Errorf("minimize tagged %v, want VB", got)
	}
	if got := tagOf(t, s, "transfers"); got != NNS {
		t.Errorf("transfers tagged %v, want NNS", got)
	}
}

func TestTagVBZPromotion(t *testing.T) {
	s := "Pinning takes time in most cases."
	if got := tagOf(t, s, "takes"); got != VBZ {
		t.Errorf("takes tagged %v, want VBZ", got)
	}
}

func TestTagGerundAfterPreposition(t *testing.T) {
	s := "The first step in maximizing overall memory throughput is important."
	if got := tagOf(t, s, "maximizing"); got != VBG {
		t.Errorf("maximizing tagged %v, want VBG", got)
	}
}

func TestTagIdentifiersAndAcronyms(t *testing.T) {
	s := "The GPU executes clWaitForEvents() before the maxrregcount option takes effect."
	if got := tagOf(t, s, "GPU"); got != NNP {
		t.Errorf("GPU tagged %v, want NNP", got)
	}
	if got := tagOf(t, s, "clWaitForEvents()"); got != NN {
		t.Errorf("identifier tagged %v, want NN", got)
	}
}

func TestTagNumbers(t *testing.T) {
	s := "Choose a multiple of 32 threads and 3.14 is irrelevant."
	if got := tagOf(t, s, "32"); got != CD {
		t.Errorf("32 tagged %v, want CD", got)
	}
	if got := tagOf(t, s, "3.14"); got != CD {
		t.Errorf("3.14 tagged %v, want CD", got)
	}
}

func TestTagPunctuation(t *testing.T) {
	s := "First, measure; then optimize."
	words := textproc.Words(s)
	tags := Tags(words)
	for i, w := range words {
		if textproc.IsPunct(w) && tags[i] != PUNCT {
			t.Errorf("punct %q tagged %v", w, tags[i])
		}
	}
}

func TestTagAdverbs(t *testing.T) {
	s := "Carefully measure the kernel and optimize it significantly."
	if got := tagOf(t, s, "Carefully"); got != RB {
		t.Errorf("Carefully tagged %v, want RB", got)
	}
	if got := tagOf(t, s, "significantly"); got != RB {
		t.Errorf("significantly tagged %v, want RB", got)
	}
}

func TestTagComparatives(t *testing.T) {
	s := "A faster path uses the largest block size."
	if got := tagOf(t, s, "faster"); got != JJR {
		t.Errorf("faster tagged %v, want JJR", got)
	}
	if got := tagOf(t, s, "largest"); got != JJS {
		t.Errorf("largest tagged %v, want JJS", got)
	}
}

func TestTagConjoinedVerbs(t *testing.T) {
	s := "Developers can choose to use conditional compilation or provide two separate kernels."
	if got := tagOf(t, s, "provide"); !got.IsVerb() {
		t.Errorf("provide tagged %v, want a verb tag", got)
	}
}

func TestTagLengthMatchesInput(t *testing.T) {
	f := func(raw string) bool {
		words := textproc.Words(raw)
		return len(Tags(words)) == len(words)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTagDeterministic(t *testing.T) {
	s := "The number of threads per block should be chosen as a multiple of the warp size."
	w := textproc.Words(s)
	a := Tags(w)
	b := Tags(w)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTagHelpers(t *testing.T) {
	if !VB.IsVerb() || !VBG.IsVerb() || NN.IsVerb() {
		t.Error("IsVerb broken")
	}
	if !NN.IsNoun() || !NNS.IsNoun() || VB.IsNoun() {
		t.Error("IsNoun broken")
	}
	if !JJ.IsAdjective() || !JJR.IsAdjective() || RB.IsAdjective() {
		t.Error("IsAdjective broken")
	}
	if !RB.IsAdverb() || JJ.IsAdverb() {
		t.Error("IsAdverb broken")
	}
	if !VBZ.FiniteVerb() || !MD.FiniteVerb() || VB.FiniteVerb() || VBG.FiniteVerb() {
		t.Error("FiniteVerb broken")
	}
}

func BenchmarkTagSentence(b *testing.B) {
	words := textproc.Words("The number of threads per block should be chosen as a multiple of the warp size to avoid wasting computing resources with under-populated warps as much as possible.")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Tags(words)
	}
}
