package depparse

import (
	"testing"
)

// FuzzParse feeds the dependency parser arbitrary sentence strings. Seeds
// live in testdata/fuzz/FuzzParse — sentences from the three synthetic
// guides (regenerate with `go run ./tools/fuzzseed`) — plus the adversarial
// cases below. Invariants: no panics, tags align with words, every relation
// endpoint is a valid token index (governor -1 = virtual ROOT, Root
// relations only from ROOT), and the tree walks the selectors rely on stay
// in bounds.
func FuzzParse(f *testing.F) {
	f.Add("")
	f.Add("use")
	f.Add("it is recommended to coalesce global memory accesses")
	f.Add("avoid shared memory bank conflicts , and prefer registers")
	f.Add("punctuation only ?! ... ---")
	f.Add("123 456 7.89 0x1f")
	f.Add("a a a a a a a a a a a a a a a a a a a a a a a a a a a a")
	f.Add("ALL CAPS SHOUTING WITH weird MiXeD caSE")
	f.Add("\tleading whitespace\nand newlines\r\n")
	f.Add("émigré naïve café — unicode words")

	f.Fuzz(func(t *testing.T, sentence string) {
		tree := ParseText(sentence)
		n := len(tree.Words)
		if len(tree.Tags) != n {
			t.Fatalf("%d tags for %d words", len(tree.Tags), n)
		}
		for _, rel := range tree.Relations {
			if rel.Dependent < 0 || rel.Dependent >= n {
				t.Fatalf("relation %s: dependent %d out of range [0,%d)", rel.Type, rel.Dependent, n)
			}
			if rel.Governor < -1 || rel.Governor >= n {
				t.Fatalf("relation %s: governor %d out of range [-1,%d)", rel.Type, rel.Governor, n)
			}
			if rel.Type == Root && rel.Governor != -1 {
				t.Fatalf("root relation with governor %d, want -1", rel.Governor)
			}
			if rel.Type != Root && rel.Governor == rel.Dependent {
				t.Fatalf("relation %s: self-loop at %d", rel.Type, rel.Dependent)
			}
		}
		// the traversals Stage I runs on every sentence must stay in bounds
		for _, v := range []int{-1, n} {
			if tree.ConjOfRoot(v) {
				t.Fatalf("ConjOfRoot(%d) true outside [0,%d)", v, n)
			}
		}
		for _, s := range tree.AllSubjects() {
			if s < 0 || s >= n {
				t.Fatalf("AllSubjects returned %d of %d", s, n)
			}
		}
		for i := 0; i < n; i++ {
			_ = tree.Lemma(i)
			_ = tree.HasSubject(i)
			_ = tree.ConjOfRoot(i)
		}
	})
}
