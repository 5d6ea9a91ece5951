// Command figures regenerates the data series behind every figure of
// the paper's evaluation (§4):
//
//	-fig 2    miss rates, four strategies, f in {0.25, 0.5, 0.75}
//	-fig 3    read rates with read skipping, same runs
//	-fig 4    Random strategy, f halved down to five slots
//	-fig 5    five full traversals: paging baseline vs out-of-core
//	-fig kernels  generic vs DNA-specialised compute kernels + P cache
//	              (not in the paper; compute-side ablation)
//	-fig protein  generic vs aa20 protein kernels (not in the paper;
//	              throughput round 2 ablation)
//	-fig resize  miss-rate trajectory as a LIVE pool is halved mid-run,
//	             four strategies (not in the paper; the runtime
//	             resource governor's ablation)
//	-fig tiers  tiered vector storage: local FileStore baseline vs
//	            cold / warm arms over a remote object store behind a
//	            write-back cache, per injected RTT; bit-identical lnL
//	            (not in the paper)
//	-fig timeline  recovery ablation: an edge sweep clean, then over a
//	               store injecting read EIO, torn writes and bit
//	               flips (bit-identical lnL); prints its table and the
//	               faulted run's registry report and writes that run's
//	               Chrome trace (compute + writer lanes, recovery
//	               markers) to -trace-out; explicit only
//	-fig all  everything except timeline (default)
//
// Default dimensions are CI-scaled; pass -full for the paper's own
// dimensions (1288 taxa for Figures 2-4; a multi-GiB footprint sweep
// for Figure 5 — expect a long run), or set -taxa/-sites directly
// (e.g. -taxa 1908 -sites 1424 for the paper's supplement dataset).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"oocphylo/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fig := fs.String("fig", "all", "which figure to regenerate: 2, 3, 4, 5, kernels, protein, resize, tiers or all")
	taxa := fs.Int("taxa", 0, "taxa for figures 2-4 (0 = scaled default; paper: 1288 or 1908)")
	sites := fs.Int("sites", 0, "sites for figures 2-4 (0 = scaled default; paper: 1200 or 1424)")
	f5taxa := fs.Int("f5taxa", 0, "taxa for figure 5 (0 = scaled default; paper: 8192)")
	seed := fs.Int64("seed", 42, "random seed")
	rounds := fs.Int("rounds", 0, "SPR rounds for the search workload (0 = default)")
	full := fs.Bool("full", false, "use the paper's dimensions (slow)")
	traceOut := fs.String("trace-out", "TRACE_timeline.json", "Chrome trace output path for -fig timeline")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := experiments.SearchWorkloadConfig{
		Taxa: *taxa, Sites: *sites, Seed: *seed, Rounds: *rounds,
	}
	f5 := experiments.Figure5Config{Taxa: *f5taxa, Seed: *seed}
	if *full {
		if cfg.Taxa == 0 {
			cfg.Taxa = 1288
		}
		if cfg.Sites == 0 {
			cfg.Sites = 1200
		}
		if f5.Taxa == 0 {
			f5.Taxa = 1024
			f5.RAMBytes = 256 << 20
			f5.Widths = []int{512, 1024, 2048, 4096, 8192, 16384}
		}
	}

	want := func(n string) bool { return *fig == "all" || *fig == n }
	out := os.Stdout

	if want("2") {
		fmt.Fprintln(out, "== Figure 2: vector miss rates per replacement strategy ==")
		res, err := experiments.RunFigure2(cfg, nil, false)
		if err != nil {
			return err
		}
		experiments.WriteMissRateTable(out, res, "tree search workload, no read skipping")
		fmt.Fprintln(out)
	}
	if want("3") {
		fmt.Fprintln(out, "== Figure 3: read rates with read skipping ==")
		res, err := experiments.RunFigure2(cfg, nil, true)
		if err != nil {
			return err
		}
		experiments.WriteMissRateTable(out, res, "tree search workload, read skipping enabled")
		fmt.Fprintln(out)
	}
	if want("4") {
		fmt.Fprintln(out, "== Figure 4: Random strategy, f halved to five slots ==")
		res, err := experiments.RunFigure4(cfg, 0.75, 5)
		if err != nil {
			return err
		}
		experiments.WriteMissRateTable(out, res, "tree search workload, RAND strategy")
		fmt.Fprintln(out)
	}
	if want("5") {
		fmt.Fprintln(out, "== Figure 5: standard (paging) vs out-of-core, 5 full traversals ==")
		rows, err := experiments.RunFigure5(f5)
		if err != nil {
			return err
		}
		experiments.WriteFigure5Table(out, rows, f5)
		fmt.Fprintln(out)
	}
	if want("kernels") {
		fmt.Fprintln(out, "== Kernel ablation: generic vs specialised PLF kernels ==")
		kcfg := experiments.KernelAblationConfig{Seed: *seed}
		if *full {
			kcfg.Taxa, kcfg.Sites = 256, 8192
		}
		res, err := experiments.RunKernelAblation(kcfg)
		if err != nil {
			return err
		}
		experiments.WriteKernelAblationTable(out, res, kcfg)
		fmt.Fprintln(out)
	}
	if want("protein") {
		fmt.Fprintln(out, "== Protein ablation: generic vs aa20 kernels ==")
		pcfg := experiments.KernelAblationConfig{Seed: *seed, AA: true}
		if *full {
			pcfg.Taxa, pcfg.Sites = 128, 2000
		}
		res, err := experiments.RunKernelAblation(pcfg)
		if err != nil {
			return err
		}
		experiments.WriteKernelAblationTable(out, res, pcfg)
		fmt.Fprintln(out)
	}
	if want("resize") {
		fmt.Fprintln(out, "== Resize ablation: live pool shrink, four strategies ==")
		rcfg := experiments.ResizeAblationConfig{Taxa: *taxa, Sites: *sites, Seed: *seed}
		if *full {
			rcfg.Taxa, rcfg.Sites = 512, 1200
		}
		rows, err := experiments.RunResizeAblation(rcfg)
		if err != nil {
			return err
		}
		experiments.WriteResizeTable(out, rows, rcfg)
		ov, err := experiments.RunResizeOverhead(rcfg, 0)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "oscillation overhead: %d resizes (%d<->%d slots), fixed %v vs oscillating %v (%+.1f%%)\n",
			ov.Resizes, ov.Low, ov.Slots, ov.FixedTime.Round(time.Millisecond),
			ov.ResizeTime.Round(time.Millisecond), 100*ov.Overhead())
		fmt.Fprintln(out)
	}
	if want("tiers") {
		fmt.Fprintln(out, "== Tier ablation: remote object store + local write-back cache ==")
		tcfg := experiments.TierAblationConfig{
			Workload: experiments.SearchWorkloadConfig{Seed: *seed},
		}
		if *full {
			tcfg.Workload.Taxa, tcfg.Workload.Sites = 128, 1200
		} else {
			tcfg.Workload.Taxa, tcfg.Workload.Sites = 32, 120
			tcfg.Workload.SPRRadius, tcfg.Workload.Rounds = 3, 1
			tcfg.RTTs = []time.Duration{2 * time.Millisecond, 10 * time.Millisecond}
		}
		rows, err := experiments.RunTierAblation(tcfg)
		if err != nil {
			return err
		}
		experiments.WriteTierTable(out, rows, tcfg)
	}
	if *fig == "timeline" {
		fmt.Fprintln(out, "== Timeline: recovery ablation, the faulted run traced ==")
		rcfg := experiments.RecoveryConfig{Taxa: *taxa, Sites: *sites, Seed: *seed}
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		res, err := experiments.RunRecoveryAblation(rcfg, f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		experiments.WriteRecoveryTable(out, res, rcfg)
		fmt.Fprintf(out, "trace written to %s (load in chrome://tracing or ui.perfetto.dev)\n", *traceOut)
		return nil
	}
	if !want("2") && !want("3") && !want("4") && !want("5") && !want("kernels") && !want("protein") && !want("resize") && !want("tiers") {
		return fmt.Errorf("unknown figure %q", *fig)
	}
	return nil
}
