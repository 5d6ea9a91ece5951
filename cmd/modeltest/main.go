// Command modeltest ranks DNA substitution models by information
// criteria on a shared Neighbor-Joining topology (jModelTest-style):
// JC69, K80, HKY85 and GTR, optionally each with discrete-Γ(4) rate
// heterogeneity.
//
// Example:
//
//	modeltest -s data.phy -gamma
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"oocphylo/internal/analysis"
	"oocphylo/internal/modelsel"
	"oocphylo/internal/tree"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "modeltest:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("modeltest", flag.ContinueOnError)
	alignPath := fs.String("s", "", "alignment file (relaxed PHYLIP; use -fasta for FASTA)")
	fastaIn := fs.Bool("fasta", false, "alignment is FASTA rather than PHYLIP")
	gamma := fs.Bool("gamma", true, "also fit +G4 variants")
	invariant := fs.Bool("invariant", false, "also fit +I (and +I+G4) variants")
	treePath := fs.String("t", "", "fixed evaluation topology (default: NJ tree from the data)")
	criterion := fs.String("criterion", "AIC", "selection criterion: AIC, AICc or BIC")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *alignPath == "" {
		fs.Usage()
		return fmt.Errorf("an alignment (-s) is required")
	}
	spec := analysis.Spec{Path: *alignPath}
	if *fastaIn {
		spec.Format = "fasta"
	}
	_, pats, err := analysis.Load(spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "Alignment: %d taxa, %d sites, %d patterns\n",
		pats.NumTaxa(), pats.TotalSites(), pats.NumPatterns())

	opts := modelsel.Options{Gamma: *gamma, Invariant: *invariant}
	if *treePath != "" {
		data, err := os.ReadFile(*treePath)
		if err != nil {
			return err
		}
		opts.Topology, err = tree.ParseNewick(string(data))
		if err != nil {
			return err
		}
	}
	fits, err := modelsel.EvaluateDNA(pats, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-10s %6s %14s %14s %14s %14s %8s\n",
		"model", "K", "lnL", "AIC", "AICc", "BIC", "alpha")
	for _, fit := range fits {
		alpha := "-"
		if !math.IsNaN(fit.Alpha) {
			alpha = fmt.Sprintf("%.3f", fit.Alpha)
		}
		fmt.Fprintf(out, "%-10s %6d %14.2f %14.2f %14.2f %14.2f %8s\n",
			fit.Name, fit.K, fit.LnL, fit.AIC, fit.AICc, fit.BIC, alpha)
	}
	best, err := modelsel.Best(fits, *criterion)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "Best model by %s: %s\n", *criterion, best.Name)
	return nil
}
