package textproc

// Hooks for the external tests in this directory, which need packages that
// import textproc (corpus, nvvp, nlp) and so cannot live in package
// textproc.
var (
	RefTokenize       = refTokenize
	RefWords          = refWords
	RefStem           = refStem
	RefNormalizeWords = refNormalizeWords
	RefNormalizeTerms = refNormalizeTerms
)

// PorterVectors returns every Porter input word of this package's vector
// tests.
func PorterVectors() []string {
	var out []string
	for _, vs := range []map[string]string{classicVectors, batch2Vectors} {
		for w := range vs {
			out = append(out, w)
		}
	}
	return out
}

// ResetStemMemo empties the stem memo, so the next lookup of every word
// misses.
func ResetStemMemo() {
	for i := range memo {
		memo[i].Store(nil)
	}
}
