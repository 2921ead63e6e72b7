// Command egeria-parse prints the full NLP analysis of sentences — tokens,
// POS tags, the typed dependency tree (in both relation notation and a
// CoNLL-style table), semantic role frames, and the selector decision. It is
// the debugging surface for the reimplemented NLP stack, playing the role of
// the corenlp.run and SRL demo pages the paper's figures were produced with.
//
// Usage:
//
//	egeria-parse "Thus, a developer may prefer using buffers."
//	echo "Avoid bank conflicts." | egeria-parse
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/depparse"
	"repro/internal/nlp"
	"repro/internal/selectors"
	"repro/internal/srl"
	"repro/internal/textproc"
)

func main() {
	log.SetFlags(0)
	conll := flag.Bool("conll", false, "print only the CoNLL-style table")
	flag.Parse()

	if args := flag.Args(); len(args) > 0 {
		analyze(strings.Join(args, " "), *conll)
		return
	}
	scanner := bufio.NewScanner(os.Stdin)
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		analyze(line, *conll)
	}
}

func analyze(text string, conllOnly bool) {
	for _, sentence := range textproc.SentenceStrings(text) {
		tree := depparse.ParseText(sentence)
		if conllOnly {
			fmt.Print(ConLL(tree))
			fmt.Println()
			continue
		}
		fmt.Printf("== %s\n\n", sentence)
		fmt.Print(ConLL(tree))

		fmt.Println("\nrelations:")
		fmt.Print(indent(tree.String()))

		frames := srl.Label(tree)
		if len(frames) > 0 {
			fmt.Println("\nsemantic frames:")
			for _, f := range frames {
				fmt.Printf("  %s.01:\n", f.Lemma)
				for _, a := range f.Args {
					fmt.Printf("    %-7s %s\n", a.Role, srl.SpanText(tree, a.Start, a.End))
				}
			}
		}

		evidence := selectors.Default().ExplainAnnotated(nlp.FromTree(sentence, tree))
		if len(evidence) > 0 {
			fmt.Println("\nselector decision: ADVISING")
			for _, ev := range evidence {
				fmt.Printf("  %-28s %s\n", ev.Selector, ev.Detail)
			}
			fmt.Println()
		} else {
			fmt.Printf("\nselector decision: not advising\n\n")
		}
	}
}

// ConLL renders the tree as a CoNLL-style table:
// index, form, lemma, tag, head index (0 = root), relation.
func ConLL(tree *depparse.Tree) string {
	var b strings.Builder
	for i, w := range tree.Words {
		head := tree.HeadOf(i)
		rel := string(tree.RelationTo(i))
		headCol := head + 1
		switch head {
		case -1:
			rel = "root"
			headCol = 0
		case -2:
			rel = "punct"
			headCol = 0
		}
		fmt.Fprintf(&b, "%3d  %-18s %-18s %-5s %3d  %s\n",
			i+1, clip(w, 18), clip(tree.Lemma(i), 18), tree.Tags[i], headCol, rel)
	}
	return b.String()
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = "  " + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}
