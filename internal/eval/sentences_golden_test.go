package eval_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/experiments"
	"repro/internal/nlp"
	"repro/internal/selectors"
)

// TestGoldenStageISentences pins Stage I sentence by sentence, which the
// per-selector TP/FP/FN counts of stage1_selectors.golden cannot: there,
// one false positive turning into a true negative while another true
// negative turns into a false positive cancels out. For each built-in guide
// under both keyword configurations, the golden holds the SHA-256 of a dump
// with one line per sentence: the built advisor's verdict and selector, the
// five selectors' decisions alone (SelectorAnnotated), and the retrieval
// terms the advisor saved.
//
// On a mismatch the test writes the dump to a temporary file and names the
// first sentence whose line differs from a one-shot re-derivation through
// nlp.Annotate. Under -update it also writes every dump and logs its path,
// so a reference dump can be taken at any commit and diffed.
func TestGoldenStageISentences(t *testing.T) {
	configs := []struct {
		name string
		cfg  selectors.Config
	}{
		{"default", selectors.DefaultConfig()},
		{"xeon-tuned", selectors.XeonTunedConfig()},
	}
	var b strings.Builder
	b.WriteString("# Stage I per sentence: SHA-256 of the dump of every sentence's verdict, selector, five selector decisions and terms.\n")
	b.WriteString("# register config sentences advising sha256\n")
	for _, reg := range []corpus.Register{corpus.CUDA, corpus.OpenCL, corpus.XeonPhi} {
		g := corpus.Generate(reg, experiments.Seed)
		texts := make([]string, len(g.Sentences))
		for i, s := range g.Sentences {
			texts[i] = s.Text
		}
		for _, c := range configs {
			adv := core.New(core.WithConfig(c.cfg)).BuildFromSentences(g.Doc, g.Sentences)
			rec := selectors.New(c.cfg)
			dump := stageISentenceDump(t, adv, rec, texts)
			label := fmt.Sprintf("%s-%s", reg, c.name)
			line := fmt.Sprintf("%s %s sentences=%d advising=%d sha256=%x\n",
				reg, c.name, len(texts), len(adv.Rules()), sha256.Sum256([]byte(dump)))
			b.WriteString(line)
			if *update {
				t.Logf("%s dump: %s", label, writeDump(t, label, dump))
			} else if !goldenHasLine(t, "stage1_sentences.golden", line) {
				path := writeDump(t, label, dump)
				t.Errorf("%s: Stage I changed (dump in %s, golden line %q): %s",
					label, path, strings.TrimSpace(line), firstOneShotMismatch(dump, rec, texts))
			}
		}
	}
	if !t.Failed() {
		compareGolden(t, "stage1_sentences.golden", b.String())
	}
}

// stageISentenceDump renders one line per sentence of adv:
//
//	index verdict selector decisions terms
//
// with the verdict 0 or 1, the selector "-" for a non-advising sentence,
// the decisions of selectors 1-5 alone as five 0/1 digits, and the terms
// space-separated. Verdict and selector come from the advisor's rules, the
// terms from its Save stream, so the dump reads what the build kept.
func stageISentenceDump(t *testing.T, adv *core.Advisor, rec *selectors.Recognizer, texts []string) string {
	t.Helper()
	var saved bytes.Buffer
	if err := adv.Save(&saved); err != nil {
		t.Fatal(err)
	}
	var snap struct{ Terms [][]string }
	if err := gob.NewDecoder(&saved).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Terms) != len(texts) {
		t.Fatalf("saved %d term lists for %d sentences", len(snap.Terms), len(texts))
	}
	selector := map[int]selectors.SelectorID{}
	for _, r := range adv.Rules() {
		selector[r.Index] = r.Selector
	}
	var b strings.Builder
	for i, text := range texts {
		sel, ok := selector[i]
		if ok != adv.IsAdvising(i) {
			t.Fatalf("sentence %d: IsAdvising %v but rule present %v", i, adv.IsAdvising(i), ok)
		}
		writeSentenceLine(&b, i, ok, sel, rec, nlp.Annotate(text), snap.Terms[i])
	}
	return b.String()
}

func writeSentenceLine(b *strings.Builder, i int, advising bool, sel selectors.SelectorID, rec *selectors.Recognizer, an *nlp.Annotation, terms []string) {
	verdict, name := '0', "-"
	if advising {
		verdict, name = '1', sel.String()
	}
	fmt.Fprintf(b, "%d %c %s ", i, verdict, name)
	for k := 1; k <= 5; k++ {
		if rec.SelectorAnnotated(k, an) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	fmt.Fprintf(b, " %s\n", strings.Join(terms, " "))
}

// firstOneShotMismatch names the first dump line that differs from the same
// sentence classified and normalized on its own through nlp.Annotate.
func firstOneShotMismatch(dump string, rec *selectors.Recognizer, texts []string) string {
	lines := strings.SplitAfter(dump, "\n")
	for i, text := range texts {
		an := nlp.Annotate(text)
		res := rec.ClassifyAnnotated(an)
		var b strings.Builder
		writeSentenceLine(&b, i, res.Advising, res.Selector, rec, an, an.Terms())
		if i >= len(lines) || lines[i] != b.String() {
			return fmt.Sprintf("first sentence differing from its one-shot annotation is %d %q:\n  build:    %s  one-shot: %s",
				i, text, lines[min(i, len(lines)-1)], b.String())
		}
	}
	return "every sentence agrees with its one-shot annotation, so code both paths share changed; diff the dump with one written at the parent by -update"
}

// goldenHasLine reports whether testdata/<name> holds line exactly.
func goldenHasLine(t *testing.T, name, line string) bool {
	t.Helper()
	want, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	return bytes.Contains(want, []byte("\n"+line))
}

// writeDump writes dump to a new temporary file, which outlives the test,
// and returns its path.
func writeDump(t *testing.T, label, dump string) string {
	t.Helper()
	f, err := os.CreateTemp("", "stage1_sentences-"+label+"-*.dump")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(dump); err != nil {
		t.Fatal(err)
	}
	return f.Name()
}
