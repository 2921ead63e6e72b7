package textproc

import (
	"testing"
	"testing/quick"
)

func TestLemmaVerbsForSelectors(t *testing.T) {
	// Every inflection of the IMPERATIVE WORDS and KEY PREDICATES keyword
	// sets must lemmatize back to the base verb — the selectors depend on
	// this (Rule 3 and Rule 5 both check lemma(v)).
	cases := map[string]string{
		"uses": "use", "used": "use", "using": "use",
		"avoids": "avoid", "avoided": "avoid", "avoiding": "avoid",
		"creates": "create", "created": "create", "creating": "create",
		"makes": "make", "made": "make", "making": "make",
		"maps": "map", "mapped": "map", "mapping": "map",
		"aligns": "align", "aligned": "align", "aligning": "align",
		"adds": "add", "added": "add", "adding": "add",
		"changes": "change", "changed": "change", "changing": "change",
		"ensures": "ensure", "ensured": "ensure", "ensuring": "ensure",
		"calls": "call", "called": "call", "calling": "call",
		"unrolls": "unroll", "unrolled": "unroll", "unrolling": "unroll",
		"moves": "move", "moved": "move", "moving": "move",
		"selects": "select", "selected": "select", "selecting": "select",
		"schedules": "schedule", "scheduled": "schedule", "scheduling": "schedule",
		"switches": "switch", "switched": "switch", "switching": "switch",
		"transforms": "transform", "transformed": "transform", "transforming": "transform",
		"packs": "pack", "packed": "pack", "packing": "pack",
		"maximizes": "maximize", "maximized": "maximize", "maximizing": "maximize",
		"minimizes": "minimize", "minimized": "minimize", "minimizing": "minimize",
		"recommends": "recommend", "recommending": "recommend", "recommended": "recommend",
		"accomplishes": "accomplish", "accomplished": "accomplish", "accomplishing": "accomplish",
		"achieves": "achieve", "achieved": "achieve", "achieving": "achieve",
		"runs": "run", "ran": "run", "running": "run",
		"leveraged": "leverage", "leveraging": "leverage",
		"encouraged": "encourage", "encouraging": "encourage",
		"controlled": "control", "controlling": "control",
		"required": "require", "requiring": "require",
		"preferred": "prefer", "prefers": "prefer", "preferring": "prefer",
	}
	for in, want := range cases {
		if got := Lemma(in, VerbClass); got != want {
			t.Errorf("Lemma(%q, Verb) = %q, want %q", in, got, want)
		}
	}
}

func TestLemmaNounsForSelectors(t *testing.T) {
	// Plurals of KEY SUBJECTS must lemmatize to the singular (Rule 4).
	cases := map[string]string{
		"programmers":   "programmer",
		"developers":    "developer",
		"applications":  "application",
		"solutions":     "solution",
		"algorithms":    "algorithm",
		"optimizations": "optimization",
		"guidelines":    "guideline",
		"techniques":    "technique",
		"branches":      "branch",
		"accesses":      "access",
		"memories":      "memory",
		"latencies":     "latency",
		"matrices":      "matrix",
		"indices":       "index",
		"warps":         "warp",
		"caches":        "cache",
		"buses":         "bus",
	}
	for in, want := range cases {
		if got := Lemma(in, NounClass); got != want {
			t.Errorf("Lemma(%q, Noun) = %q, want %q", in, got, want)
		}
	}
}

func TestLemmaIrregularVerbs(t *testing.T) {
	cases := map[string]string{
		"is": "be", "are": "be", "was": "be", "were": "be", "been": "be",
		"has": "have", "had": "have",
		"chosen": "choose", "written": "write", "found": "find",
		"hidden": "hide", "built": "build", "kept": "keep",
	}
	for in, want := range cases {
		if got := Lemma(in, VerbClass); got != want {
			t.Errorf("Lemma(%q, Verb) = %q, want %q", in, got, want)
		}
	}
}

func TestLemmaBaseFormsUnchanged(t *testing.T) {
	for _, w := range []string{"use", "avoid", "thread", "memory", "process", "access", "always", "this", "focus"} {
		if got := Lemma(w, AnyClass); got != w {
			t.Errorf("Lemma(%q) = %q, want unchanged", w, got)
		}
	}
}

func TestLemmaAdjectives(t *testing.T) {
	cases := map[string]string{
		"faster":  "fast",
		"fastest": "fast",
		"larger":  "large",
		"largest": "large",
		"bigger":  "big",
		"easier":  "easy",
		"easiest": "easy",
	}
	for in, want := range cases {
		if got := Lemma(in, AdjClass); got != want {
			t.Errorf("Lemma(%q, Adj) = %q, want %q", in, got, want)
		}
	}
}

func TestLemmaAnyClass(t *testing.T) {
	cases := map[string]string{
		"using":      "use",
		"threads":    "thread",
		"maximizing": "maximize",
		"developers": "developer",
		"ran":        "run",
		"indices":    "index",
	}
	for in, want := range cases {
		if got := Lemma(in, AnyClass); got != want {
			t.Errorf("Lemma(%q, Any) = %q, want %q", in, got, want)
		}
	}
}

func TestLemmaCaseInsensitive(t *testing.T) {
	if got := Lemma("Using", VerbClass); got != "use" {
		t.Errorf("Lemma(Using) = %q, want use", got)
	}
}

func TestLemmaEmptyAndShort(t *testing.T) {
	if got := Lemma("", AnyClass); got != "" {
		t.Errorf("Lemma(\"\") = %q", got)
	}
	if got := Lemma("a", AnyClass); got != "a" {
		t.Errorf("Lemma(a) = %q", got)
	}
}

// Property: lemmatization is idempotent — Lemma(Lemma(w)) == Lemma(w) for
// words drawn from the lexicon's inflection space.
func TestLemmaIdempotent(t *testing.T) {
	f := func(raw string) bool {
		w := make([]byte, 0, 16)
		for i := 0; i < len(raw) && len(w) < 16; i++ {
			b := raw[i] | 0x20
			if b >= 'a' && b <= 'z' {
				w = append(w, b)
			}
		}
		word := string(w)
		l1 := Lemma(word, VerbClass)
		l2 := Lemma(l1, VerbClass)
		// allow a single further reduction only if the first pass produced
		// a form that is itself inflected-looking; full idempotence must
		// hold for lexicon words.
		if KnownWord(word) && l1 != Lemma(l1, VerbClass) {
			return false
		}
		_ = l2
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestKnownWord(t *testing.T) {
	for _, w := range []string{"use", "memory", "thread", "optimize", "kernel", "warp"} {
		if !KnownWord(w) {
			t.Errorf("KnownWord(%q) = false", w)
		}
	}
	for _, w := range []string{"zzzz", "qqq", ""} {
		if KnownWord(w) {
			t.Errorf("KnownWord(%q) = true", w)
		}
	}
	if LexiconSize() < 500 {
		t.Errorf("lexicon unexpectedly small: %d", LexiconSize())
	}
}

func TestStopwords(t *testing.T) {
	for _, w := range []string{"the", "The", "is", "of", "and", "to"} {
		if !IsStopword(w) {
			t.Errorf("IsStopword(%q) = false", w)
		}
	}
	for _, w := range []string{"memory", "kernel", "optimize"} {
		if IsStopword(w) {
			t.Errorf("IsStopword(%q) = true", w)
		}
	}
}

func TestNormalizeTerms(t *testing.T) {
	got := NormalizeTerms("Maximize the memory throughput of the application.")
	want := []string{"maxim", "memori", "throughput", "applic"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("term %d = %q, want %q", i, got[i], want[i])
		}
	}
}
