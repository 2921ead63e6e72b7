// Command egeria-tune runs the keyword-tuning workflow of the paper's §4.3:
// given a guide with labeled advising sentences, it mines keyword candidates
// from the recognizer's false negatives and greedily extends the keyword
// sets where doing so raises F-measure.
//
// Usage:
//
//	egeria-tune -corpus xeon                # tune against a synthetic guide
//	egeria-tune -corpus xeon -max 4 -v     # more suggestions, show config
//
// Labeled external documents are not supported from the CLI (labels are what
// the synthetic corpora provide); use the tuning package directly for custom
// samples.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/corpus"
	"repro/internal/selectors"
	"repro/internal/tuning"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("egeria-tune: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the testable body of the command: flags in, tuning report out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("egeria-tune", flag.ContinueOnError)
	corpusReg := fs.String("corpus", "xeon", "synthetic guide to tune against: cuda, opencl, xeon")
	seed := fs.Int64("seed", 1, "corpus generation seed")
	max := fs.Int("max", 5, "maximum keywords to accept")
	verbose := fs.Bool("v", false, "print the resulting keyword sets")
	if err := fs.Parse(args); err != nil {
		return err
	}

	reg, err := corpus.ParseRegister(*corpusReg)
	if err != nil {
		return err
	}

	g := corpus.Generate(reg, *seed)
	texts, labels := g.EvalSentences()
	truth := make([]bool, len(labels))
	for i, l := range labels {
		truth[i] = l.Advising
	}

	fmt.Fprintf(out, "Tuning the default configuration against the %s guide's %d labeled sentences...\n\n",
		reg, len(texts))
	res, err := tuning.Tune(selectors.DefaultConfig(), texts, truth, tuning.Options{MaxSuggestions: *max})
	if err != nil {
		return err
	}
	fmt.Fprint(out, tuning.FormatResult(res))

	if *verbose {
		fmt.Fprintln(out, "\nExtended keyword sets:")
		base := selectors.DefaultConfig()
		printAdded := func(name string, before, after []string) {
			if len(after) > len(before) {
				fmt.Fprintf(out, "  %s: +%v\n", name, after[len(before):])
			}
		}
		printAdded("FLAGGING WORDS", base.FlaggingWords, res.Config.FlaggingWords)
		printAdded("KEY SUBJECTS", base.KeySubjects, res.Config.KeySubjects)
		printAdded("IMPERATIVE WORDS", base.ImperativeWords, res.Config.ImperativeWords)
	}
	return nil
}
