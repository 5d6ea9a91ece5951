package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"oocphylo/internal/analysis"
	"oocphylo/internal/plf"
	"oocphylo/internal/sim"
)

// Kernel ablation — the compute-side counterpart of the I/O ablations.
// The same three workloads that dominate a likelihood search (newview
// full traversals, evaluate edge walks, Newton branch optimisation) run
// once under the generic k-state kernels with the transition-matrix
// cache disabled (the legacy compute path) and once under auto dispatch
// (DNA-unrolled kernels plus the P cache). The harness enforces the
// repo-wide exactness bar — bit-identical log-likelihoods per phase —
// so the table can only ever show speed differences, never result
// differences.

// KernelAblationConfig describes the generic-versus-specialised sweep.
type KernelAblationConfig struct {
	// Taxa and Sites set the simulated dataset dimensions.
	Taxa, Sites int
	// Seed fixes the dataset.
	Seed int64
	// Traversals is the number of full traversals in the newview phase.
	Traversals int
	// AA switches the dataset to protein (k=20), ablating the aa20
	// kernel set instead of dna4. Sites defaults lower (500) since each
	// protein pattern carries 25x the arithmetic of a DNA pattern.
	AA bool
}

func (c *KernelAblationConfig) fill() {
	if c.Taxa == 0 {
		c.Taxa = 64
	}
	if c.Sites == 0 {
		if c.AA {
			c.Sites = 500
		} else {
			c.Sites = 2000
		}
	}
	if c.Traversals == 0 {
		c.Traversals = 5
	}
}

// KernelAblationRow is one workload phase, generic versus specialised.
type KernelAblationRow struct {
	// Phase names the workload: "newview", "evaluate" or "deriv".
	Phase string
	// GenericWall and AutoWall are the measured wall-clock times.
	GenericWall, AutoWall time.Duration
	// LnL is the (bit-identical) phase checksum: the final or summed
	// log-likelihood the phase produced.
	LnL float64
}

// Speedup returns generic/auto wall time.
func (r KernelAblationRow) Speedup() float64 {
	if r.AutoWall <= 0 {
		return 0
	}
	return float64(r.GenericWall) / float64(r.AutoWall)
}

// kernelPhaseResult is one mode's execution of all three phases.
type kernelPhaseResult struct {
	wall   [3]time.Duration
	lnl    [3]float64
	stats  plf.Stats
	kernel string
}

// runKernelPhases executes the three workloads on a fresh engine in the
// given kernel mode. Both modes run the identical operation sequence on
// identical inputs (tree clones share branch lengths; OptimizeBranch
// mutates only the clone), so per-phase results must agree to the bit.
func runKernelPhases(cfg KernelAblationConfig, w *workload, mode string) (kernelPhaseResult, error) {
	var r kernelPhaseResult
	_, err := w.run(arm{Kernel: mode}, func(run *analysis.Run) error {
		e, t := run.Engine, run.Engine.T

		// Phase 1 — newview: k full traversals (the Figure-5 workload).
		start := time.Now()
		lnl, _, err := fullTraversalWorkload(e, cfg.Traversals)
		if err != nil {
			return err
		}
		r.wall[0] = time.Since(start)
		r.lnl[0] = lnl

		// Phase 2 — evaluate: walk every edge, evaluating at each (partial
		// traversals keep newview work minimal, so evaluate dominates).
		start = time.Now()
		sum := 0.0
		for _, edge := range t.Edges {
			l, err := e.LogLikelihoodAt(edge)
			if err != nil {
				return err
			}
			sum += l
		}
		r.wall[1] = time.Since(start)
		r.lnl[1] = sum

		// Phase 3 — deriv: Newton-optimise every edge once (sum table
		// construction plus iteration).
		start = time.Now()
		sum = 0.0
		for _, edge := range t.Edges {
			l, err := e.OptimizeBranch(edge)
			if err != nil {
				return err
			}
			sum += l
		}
		r.wall[2] = time.Since(start)
		r.lnl[2] = sum

		r.stats = e.Stats
		r.kernel = e.KernelName()
		return nil
	})
	return r, err
}

// KernelAblationResult bundles the phase rows with the cache counters of
// the specialised run.
type KernelAblationResult struct {
	Rows []KernelAblationRow
	// Kernel is the specialised run's active kernel name ("dna4").
	Kernel string
	// PCacheHits / PCacheMisses are the specialised run's cache ledger
	// over all three phases (the generic run's is zero by construction).
	PCacheHits, PCacheMisses int64
}

// HitRate returns hits/(hits+misses) of the P cache.
func (res KernelAblationResult) HitRate() float64 {
	tot := res.PCacheHits + res.PCacheMisses
	if tot == 0 {
		return 0
	}
	return float64(res.PCacheHits) / float64(tot)
}

// RunKernelAblation runs the three phases under both kernel modes and
// fails if any phase's likelihood checksum differs by a single bit.
func RunKernelAblation(cfg KernelAblationConfig) (*KernelAblationResult, error) {
	cfg.fill()
	w, err := newWorkload(sim.Config{Taxa: cfg.Taxa, Sites: cfg.Sites, Seed: cfg.Seed, AA: cfg.AA}, false)
	if err != nil {
		return nil, err
	}
	gen, err := runKernelPhases(cfg, w, plf.KernelGeneric)
	if err != nil {
		return nil, fmt.Errorf("generic kernels: %w", err)
	}
	auto, err := runKernelPhases(cfg, w, plf.KernelAuto)
	if err != nil {
		return nil, fmt.Errorf("auto kernels: %w", err)
	}
	if gen.stats.PCacheHits != 0 || gen.stats.PCacheMisses != 0 {
		return nil, fmt.Errorf("generic run touched the P cache: %+v", gen.stats)
	}
	phases := []string{"newview", "evaluate", "deriv"}
	res := &KernelAblationResult{
		Kernel:       auto.kernel,
		PCacheHits:   auto.stats.PCacheHits,
		PCacheMisses: auto.stats.PCacheMisses,
	}
	for i, phase := range phases {
		if math.Float64bits(gen.lnl[i]) != math.Float64bits(auto.lnl[i]) {
			return nil, fmt.Errorf("phase %s: likelihood diverged: generic %.17g, %s %.17g",
				phase, gen.lnl[i], auto.kernel, auto.lnl[i])
		}
		res.Rows = append(res.Rows, KernelAblationRow{
			Phase:       phase,
			GenericWall: gen.wall[i],
			AutoWall:    auto.wall[i],
			LnL:         auto.lnl[i],
		})
	}
	return res, nil
}

// WriteKernelAblationTable renders the ablation as text.
func WriteKernelAblationTable(w io.Writer, res *KernelAblationResult, cfg KernelAblationConfig) {
	cfg.fill()
	data := "DNA GTR+Γ4"
	if cfg.AA {
		data = "protein Poisson+Γ4"
	}
	fmt.Fprintf(w, "Kernel ablation: %d taxa × %d sites %s, %d traversals, 1 worker(s), kernel %s\n",
		cfg.Taxa, cfg.Sites, data, cfg.Traversals, res.Kernel)
	fmt.Fprintf(w, "%10s %12s %12s %8s %16s\n", "phase", "generic", res.Kernel, "speedup", "lnL (identical)")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%10s %12v %12v %7.2fx %16.2f\n",
			r.Phase, r.GenericWall.Round(10*time.Microsecond), r.AutoWall.Round(10*time.Microsecond),
			r.Speedup(), r.LnL)
	}
	fmt.Fprintf(w, "P cache: %d hits / %d misses (%.1f%% hit rate)\n",
		res.PCacheHits, res.PCacheMisses, 100*res.HitRate())
}
