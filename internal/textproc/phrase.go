package textproc

// Phrase is a keyword phrase prepared for stemmed matching: the text as
// written and the Porter stems of its words.
type Phrase struct {
	Text  string
	Stems []string
}

// StemPhrases prepares each text for FindPhrase, in order. A text with no
// words could match nothing and is dropped.
func StemPhrases(texts []string) []Phrase {
	out := make([]Phrase, 0, len(texts))
	for _, t := range texts {
		if stems := StemAll(Words(t)); len(stems) > 0 {
			out = append(out, Phrase{Text: t, Stems: stems})
		}
	}
	return out
}

// FindPhrase returns the index of the first phrase whose stems occur as
// consecutive elements of stems, or -1 if none does. A phrase with no stems
// never matches.
func FindPhrase(stems []string, phrases []Phrase) int {
	for i, p := range phrases {
		n := len(p.Stems)
		if n == 0 || n > len(stems) {
			continue
		}
	scan:
		for j, s := range stems[:len(stems)-n+1] {
			if s != p.Stems[0] {
				continue
			}
			for k := 1; k < n; k++ {
				if stems[j+k] != p.Stems[k] {
					continue scan
				}
			}
			return i
		}
	}
	return -1
}
