// Command egeria-eval regenerates the tables of the paper's evaluation
// section (Tables 3-8), the Fleiss' kappa agreement statistics, and the
// extension ablations (similarity-threshold sweep). Select a single table
// with -table N or print everything with no flags.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/experiments"
	"repro/internal/selectors"
	"repro/internal/study"
)

// errUsage marks operator mistakes (exit 2) as opposed to runtime failures
// (exit 1).
var errUsage = errors.New("usage")

func main() {
	log.SetFlags(0)
	log.SetPrefix("egeria-eval: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, errUsage) {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		log.Fatal(err)
	}
}

// run is the testable body of the command: flags in, report out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("egeria-eval", flag.ContinueOnError)
	table := fs.Int("table", 0, "print only this table (3-8); 0 = all")
	ablations := fs.Bool("ablations", false, "also run the extension ablations")
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}

	if *table != 0 && (*table < 3 || *table > 8) {
		return fmt.Errorf("%w: unknown table %d; want 3-8", errUsage, *table)
	}
	want := func(n int) bool { return *table == 0 || *table == n }

	var cudaGuide *corpus.Guide
	var cudaAdvisor *core.Advisor
	if want(4) || want(5) || want(6) || *ablations {
		cudaGuide, cudaAdvisor = experiments.BuildAdvisor(corpus.CUDA)
		if *table == 0 {
			fmt.Fprintln(out, experiments.FormatBuildStats("CUDA", cudaAdvisor))
			fmt.Fprintln(out)
		}
	}

	if want(3) {
		o, err := experiments.Table3()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, o)
	}
	if want(4) {
		fmt.Fprintln(out, experiments.Table4(cudaGuide, cudaAdvisor))
	}
	if want(5) {
		res, o, err := experiments.Table5(cudaAdvisor)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, o)
		fmt.Fprintln(out, study.Table5CI(res))
	}
	if want(6) {
		fmt.Fprintln(out, experiments.FormatTable6(experiments.Table6(cudaGuide, cudaAdvisor)))
	}
	if want(7) {
		fmt.Fprintln(out, experiments.FormatTable7(experiments.Table7()))
	}
	if want(8) {
		for _, reg := range []corpus.Register{corpus.CUDA, corpus.OpenCL, corpus.XeonPhi} {
			fmt.Fprintln(out, experiments.FormatTable8(reg, experiments.Table8(reg, selectors.DefaultConfig())))
		}
		fmt.Fprintln(out, "Xeon with §4.3 keyword tuning ('have to be', 'user', 'one'):")
		fmt.Fprintln(out, experiments.FormatTable8(corpus.XeonPhi, experiments.Table8(corpus.XeonPhi, selectors.XeonTunedConfig())))
	}
	if *table == 0 {
		fmt.Fprintln(out, "Fleiss' kappa of the simulated expert raters (paper: > 0.8):")
		kappas := experiments.Kappas()
		for _, guide := range []string{"CUDA", "OpenCL", "Xeon"} {
			fmt.Fprintf(out, "  %-8s %.3f\n", guide, kappas[guide])
		}
		fmt.Fprintln(out)
	}
	if *ablations {
		points := experiments.ThresholdSweep(cudaGuide, cudaAdvisor,
			[]float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.40})
		fmt.Fprintln(out, experiments.FormatThresholdSweep(points))
		fmt.Fprintln(out, "Ablation: leave-one-selector-out (CUDA recognition):")
		fmt.Fprintln(out, experiments.FormatTable8(corpus.CUDA,
			experiments.Table8LeaveOneOut(corpus.CUDA, selectors.DefaultConfig())))
		fmt.Fprintln(out, "Ablation: TextRank summarization baseline (CUDA, same budget):")
		fmt.Fprintln(out, experiments.FormatTable8(corpus.CUDA,
			experiments.Table8WithSummarizer(corpus.CUDA, selectors.DefaultConfig())))
		fmt.Fprintln(out, experiments.FormatAttribution(corpus.CUDA,
			experiments.CategoryAttribution(corpus.CUDA, selectors.DefaultConfig())))
	}
	return nil
}
