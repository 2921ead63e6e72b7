package textproc_test

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/depparse"
	"repro/internal/gpusim"
	"repro/internal/nlp"
	"repro/internal/nvvp"
	"repro/internal/textproc"
)

// normalizeInputs are the texts the normalizer is held to its reference on:
// every sentence of the four benchmark guides (the three paper-size guides
// and the 10,000-sentence one), the CUDA queries, the issue text of every
// synthesized NVVP report and modelled kernel, the Porter vector words, and
// random strings.
func normalizeInputs(t *testing.T) []string {
	t.Helper()
	var in []string
	for _, reg := range []corpus.Register{corpus.CUDA, corpus.OpenCL, corpus.XeonPhi} {
		in = append(in, corpus.Generate(reg, 1).Texts()...)
	}
	in = append(in, corpus.GenerateSized(corpus.CUDA, 10000, 0.15, 1).Texts()...)
	for _, q := range corpus.CUDAQueries() {
		in = append(in, q.Text)
	}
	var reports []*nvvp.Report
	for _, p := range nvvp.Programs() {
		text, err := nvvp.Synthesize(p)
		if err != nil {
			t.Fatal(err)
		}
		r, err := nvvp.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, r)
	}
	for _, k := range gpusim.BenchmarkKernels() {
		reports = append(reports, nvvp.ProfileKernel(k, gpusim.GTX780()).Report())
	}
	for _, r := range reports {
		for _, is := range r.Issues() {
			in = append(in, is.Query())
		}
	}
	in = append(in, textproc.PorterVectors()...)
	return append(in, randomTexts(3000, 1)...)
}

// randomTexts returns n strings pieced together from mixed-case words,
// clitics, apostrophes, hyphens, dots, digits, white space, words that
// Unicode lowercasing shortens or makes ASCII (İ, U+212A KELVIN SIGN),
// ſ, other non-ASCII letters, invalid UTF-8, and words around the memo's
// 32-byte limit.
func randomTexts(n int, seed int64) []string {
	pieces := []string{
		"memory", "Memory", "MEMORY", "coalescing", "Transfers", "the", "The", "IS",
		"don", "DON", "n't", "N'T", "'s", "'S", "'ll", "'LL", "'re", "'ve", "'d", "'M", "'",
		"-", "--", ".", "...", "/", "(", ")", "()", "_", "#", ",", ";", "*", "=",
		"3", "42", "3.14f", "x86", "0x1F", "e.g", "i.e",
		" ", " ", "  ", "\t", "\n", "\r\n", "\v\f",
		"\u0130", "\u0130S", "\u0130t's", "\u212A", "\u212Aeeping", "\u017F", "\u017Ftrides",
		"caf\u00e9", "CAF\u00c9", "\u00c9T\u00c9", "\u00a0",
		"\xff", "\xe2\x80", "\xc3",
		strings.Repeat("optimize", 4), strings.Repeat("optimize", 4) + "s", strings.Repeat("Ab", 20),
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	for i := range out {
		var b strings.Builder
		for k := 1 + rng.Intn(16); k > 0; k-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		out[i] = b.String()
	}
	return out
}

// normalizeChecks each hold one normalizer entry point to the reference.
var normalizeChecks = []struct {
	name  string
	check func(s string) (got, want any)
}{
	{"NormalizeTerms", func(s string) (any, any) {
		return textproc.NormalizeTerms(s), textproc.RefNormalizeTerms(s)
	}},
	{"Tokenize", func(s string) (any, any) { return textproc.Tokenize(s), textproc.RefTokenize(s) }},
	{"Words", func(s string) (any, any) { return textproc.Words(s), textproc.RefWords(s) }},
	{"NormalizeWords(Words)", func(s string) (any, any) {
		return textproc.NormalizeWords(textproc.Words(s)), textproc.RefNormalizeTerms(s)
	}},
	{"Stem", func(s string) (any, any) {
		words := textproc.RefWords(s)
		want := make([]string, len(words))
		for i, w := range words {
			want[i] = textproc.RefStem(w)
		}
		return textproc.StemAll(words), want
	}},
	// Terms reads only the tree's words, so the fuzzer skips the parse;
	// TestNormalizeMatchesReference also checks fully annotated sentences
	{"Annotation.Terms", func(s string) (any, any) {
		return nlp.FromTree(s, &depparse.Tree{Words: textproc.Words(s)}).Terms(), textproc.RefNormalizeTerms(s)
	}},
}

// TestNormalizeMatchesReference holds NormalizeTerms, Tokenize, Words,
// NormalizeWords, Stem and Annotation.Terms to the two-step reference, each
// first from an empty stem memo and then from a memo other inputs filled.
// The annotations here come from AnnotateAll, the build's path.
func TestNormalizeMatchesReference(t *testing.T) {
	inputs := normalizeInputs(t)
	for _, pass := range []string{"cold", "warm"} {
		for _, c := range normalizeChecks {
			if pass == "cold" {
				textproc.ResetStemMemo()
			}
			for _, s := range inputs {
				if got, want := c.check(s); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s memo: %s(%q) = %#v, want %#v", pass, c.name, s, got, want)
				}
			}
		}
		if pass == "cold" {
			textproc.ResetStemMemo()
		}
		for i, ann := range nlp.AnnotateAll(inputs) {
			if got, want := ann.Terms(), textproc.RefNormalizeTerms(inputs[i]); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s memo: AnnotateAll(%q) terms %#v, want %#v", pass, inputs[i], got, want)
			}
		}
	}
}

// FuzzNormalizeTerms holds every normalizer entry point to the reference on
// arbitrary text. Its seeds (testdata/fuzz, written by tools/fuzzseed) are
// guide sentences, CUDA queries, NVVP issue texts and hostile strings.
func FuzzNormalizeTerms(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		for _, c := range normalizeChecks {
			if got, want := c.check(s); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s(%q) = %#v, want %#v", c.name, s, got, want)
			}
		}
	})
}
