// Command corpusgen renders a seeded, size-parameterized synthetic HPC
// guide as HTML on stdout (or to -o). It is the CLI face of
// corpus.GenerateSized: the scale benchmarks use the same generator
// in-process, and corpusgen makes the identical documents available to
// shell workflows — exporting a 10k-sentence guide to feed
// `egeria -doc guide.html serve`, say, or regenerating a scaling corpus
// byte-for-byte from its (register, size, fraction, seed) tuple.
//
//	go run ./tools/corpusgen -register cuda -sentences 10000 -seed 7 -o guide.html
//
// Output is deterministic in the flag tuple: the same flags always produce
// the same document.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/corpus"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("corpusgen: ")

	var (
		register  = flag.String("register", "cuda", "guide register: cuda, opencl, xeon")
		sentences = flag.Int("sentences", 0, "total sentence count (0: the register's paper-faithful Table 7 size)")
		advising  = flag.Float64("advising-frac", 0.15, "fraction of advising sentences (ignored when -sentences is 0)")
		seed      = flag.Int64("seed", 1, "generation seed")
		out       = flag.String("o", "", "output path (default stdout)")
		stats     = flag.Bool("stats", false, "print sentence/advising counts to stderr")
	)
	flag.Parse()

	g, err := generate(*register, *sentences, *advising, *seed)
	if err != nil {
		log.Fatal(err)
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "%s: %d sentences, %d advising, %d sections\n",
			g.Doc.Title, len(g.Sentences), g.AdvisingCount(), len(g.Doc.Sections))
	}
	html := g.RenderHTML()
	if *out == "" {
		fmt.Print(html)
		return
	}
	if err := os.WriteFile(*out, []byte(html), 0o644); err != nil {
		log.Fatal(err)
	}
}

// generate resolves the register name and builds the guide: full-size
// (Table 7) when nSentences is 0, custom-size otherwise.
func generate(register string, nSentences int, advisingFrac float64, seed int64) (*corpus.Guide, error) {
	reg, err := corpus.ParseRegister(register)
	if err != nil {
		return nil, err
	}
	if nSentences < 0 {
		return nil, fmt.Errorf("-sentences must be >= 0, got %d", nSentences)
	}
	if nSentences == 0 {
		return corpus.Generate(reg, seed), nil
	}
	if advisingFrac <= 0 || advisingFrac >= 1 {
		return nil, fmt.Errorf("-advising-frac must be in (0,1), got %v", advisingFrac)
	}
	return corpus.GenerateSized(reg, nSentences, advisingFrac, seed), nil
}
