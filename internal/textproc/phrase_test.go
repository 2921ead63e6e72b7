package textproc

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestStemPhrases(t *testing.T) {
	got := StemPhrases([]string{"good choice", " ", "", "Encouraged"})
	want := []Phrase{
		{Text: "good choice", Stems: []string{"good", "choic"}},
		{Text: "Encouraged", Stems: []string{"encourag"}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("StemPhrases = %+v, want %+v", got, want)
	}
}

func TestFindPhraseProperty(t *testing.T) {
	f := func(hay []string, i, j uint8) bool {
		if len(hay) == 0 {
			return true
		}
		a := int(i) % len(hay)
		b := int(j) % len(hay)
		if a > b {
			a, b = b, a
		}
		// any contiguous run of hay is found in hay, a phrase longer than
		// hay is not, and the first phrase that occurs wins
		phrases := []Phrase{{Stems: append(slices.Clone(hay), "x")}, {Stems: hay[a : b+1]}, {Stems: hay[:1]}}
		return FindPhrase(hay, phrases) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	if got := FindPhrase([]string{"a"}, []Phrase{{Text: "empty"}}); got != -1 {
		t.Errorf("a phrase with no stems matched: %d", got)
	}
	if got := FindPhrase([]string{"a"}, []Phrase{{Stems: []string{"a", "b"}}}); got != -1 {
		t.Errorf("a phrase longer than the sentence matched: %d", got)
	}
	if got := FindPhrase([]string{"choic", "good"}, StemPhrases([]string{"good choice"})); got != -1 {
		t.Errorf("a split, reordered phrase matched: %d", got)
	}
}
