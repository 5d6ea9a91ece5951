package experiments

import (
	"fmt"
	"io"
	"math"

	"oocphylo/internal/analysis"
	"oocphylo/internal/ooc"
	"oocphylo/internal/plf"
	"oocphylo/internal/sim"
)

// Precision ablation — the f32-versus-f64 trade study. One simulated
// dataset runs three ways:
//
//  1. f64 in-memory (the reference likelihood),
//  2. f32 in-memory synchronous,
//  3. f32 out-of-core asynchronous (checksummed store, multiple
//     workers).
//
// The harness enforces the two contracts -precision f32 advertises:
// runs 2 and 3 must agree bit-for-bit (within-precision determinism is
// independent of the I/O and threading regime), and run 2 must agree
// with run 1 to the documented accuracy budget. It also records the
// geometry the out-of-core stores were created with, which is where the
// bandwidth win shows up: the f32 store holds half the bytes per vector.

// PrecisionAccuracyBudget is the documented |Δ lnL|/|lnL| ceiling for
// f32 mode. Measured errors sit near 1e-9 (the scaling tail and all
// log-space arithmetic stay in float64); the budget leaves four orders
// of magnitude of slack for unlucky datasets.
const PrecisionAccuracyBudget = 1e-4

// PrecisionAblationConfig describes the f32-versus-f64 run.
type PrecisionAblationConfig struct {
	// Taxa and Sites set the dataset (default 128 taxa — the acceptance
	// criterion's experiment size).
	Taxa, Sites int
	// Seed fixes the dataset.
	Seed int64
	// AA switches to protein data.
	AA bool
	// Workers is the PLF worker count for the async run.
	Workers int
}

func (c *PrecisionAblationConfig) fill() {
	if c.Taxa == 0 {
		c.Taxa = 128
	}
	if c.Sites == 0 {
		if c.AA {
			c.Sites = 400
		} else {
			c.Sites = 1500
		}
	}
	if c.Workers == 0 {
		c.Workers = 4
	}
}

// PrecisionAblationResult is the measured trade.
type PrecisionAblationResult struct {
	// LnL64 and LnL32 are the in-memory log-likelihoods per precision.
	LnL64, LnL32 float64
	// LnL32Async is the out-of-core asynchronous f32 log-likelihood; the
	// harness has already verified it equals LnL32 bit-for-bit.
	LnL32Async float64
	// RelErr is |LnL64-LnL32| / |LnL64|.
	RelErr float64
	// Opt64 and Opt32 are the optimised log-likelihoods of one Newton
	// branch pass per precision (the derivative-path accuracy probe).
	Opt64, Opt32 float64
	// VecBytes64 and VecBytes32 are the per-vector store payloads in
	// bytes, as the opened runs sized them.
	VecBytes64, VecBytes32 int
	// Kernel is the specialised kernel the f32 runs used.
	Kernel string
}

// precisionFraction is the out-of-core RAM fraction of the async f32
// run and of the runs whose sizing is read.
const precisionFraction = 0.4

// runPrecision runs one in-memory engine at the given precision:
// full-traversal likelihood plus a Newton pass over every edge.
func runPrecision(w *workload, prec string) (lnl, opt float64, kernel string, err error) {
	_, err = w.run(arm{Precision: prec}, func(r *analysis.Run) (err error) {
		e := r.Engine
		if lnl, err = e.LogLikelihood(); err != nil {
			return err
		}
		for _, edge := range e.T.Edges {
			if opt, err = e.OptimizeBranch(edge); err != nil {
				return err
			}
		}
		kernel = e.KernelName()
		return nil
	})
	return lnl, opt, kernel, err
}

// RunPrecisionAblation measures the f32 trade and enforces its
// contracts: sync/async f32 bit-identity and the accuracy budget.
func RunPrecisionAblation(cfg PrecisionAblationConfig) (*PrecisionAblationResult, error) {
	cfg.fill()
	w, err := newWorkload(sim.Config{Taxa: cfg.Taxa, Sites: cfg.Sites, Seed: cfg.Seed, AA: cfg.AA}, false)
	if err != nil {
		return nil, err
	}
	res := &PrecisionAblationResult{}
	res.LnL64, res.Opt64, _, err = runPrecision(w, plf.PrecisionF64)
	if err != nil {
		return nil, fmt.Errorf("f64 run: %w", err)
	}
	res.LnL32, res.Opt32, res.Kernel, err = runPrecision(w, plf.PrecisionF32)
	if err != nil {
		return nil, fmt.Errorf("f32 run: %w", err)
	}
	res.RelErr = math.Abs(res.LnL64-res.LnL32) / math.Abs(res.LnL64)
	if res.RelErr > PrecisionAccuracyBudget {
		return nil, fmt.Errorf("f32 accuracy budget blown: lnL %.6f vs %.6f (rel %.2e > %g)",
			res.LnL32, res.LnL64, res.RelErr, PrecisionAccuracyBudget)
	}

	// Async out-of-core f32: same dataset through a checksummed store
	// with prefetching workers. Must reproduce the sync bits exactly. The
	// runs' sizing says what a vector costs on disk at each precision (the
	// f64 one is opened for nothing else).
	outOfCore := func(prec string, body func(*analysis.Run) error) (vecBytes int, err error) {
		r, err := w.run(arm{
			Fraction: precisionFraction, Precision: prec, Workers: cfg.Workers,
			Async: true, Stack: ooc.StackSpec{Verify: true},
		}, body)
		if err != nil {
			return 0, err
		}
		return int(r.Sizing.VecBytes), nil
	}
	res.VecBytes32, err = outOfCore(plf.PrecisionF32, func(r *analysis.Run) (err error) {
		res.LnL32Async, err = r.Engine.LogLikelihood()
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("f32 async run: %w", err)
	}
	if math.Float64bits(res.LnL32Async) != math.Float64bits(res.LnL32) {
		return nil, fmt.Errorf("f32 sync/async divergence: %.17g vs %.17g",
			res.LnL32, res.LnL32Async)
	}
	res.VecBytes64, err = outOfCore(plf.PrecisionF64, func(*analysis.Run) error { return nil })
	if err != nil {
		return nil, err
	}
	if res.VecBytes32*2 != res.VecBytes64 && res.VecBytes32*2 != res.VecBytes64+8 {
		return nil, fmt.Errorf("f32 store not halved: %d B vs %d B per vector",
			res.VecBytes32, res.VecBytes64)
	}
	return res, nil
}

// WritePrecisionAblationTable renders the trade as text.
func WritePrecisionAblationTable(w io.Writer, res *PrecisionAblationResult, cfg PrecisionAblationConfig) {
	cfg.fill()
	data := "DNA"
	if cfg.AA {
		data = "protein"
	}
	fmt.Fprintf(w, "Precision ablation: %d taxa × %d sites %s +Γ4, kernel %s\n",
		cfg.Taxa, cfg.Sites, data, res.Kernel)
	fmt.Fprintf(w, "%22s %18s %18s\n", "", "f64", "f32")
	fmt.Fprintf(w, "%22s %18.6f %18.6f\n", "lnL", res.LnL64, res.LnL32)
	fmt.Fprintf(w, "%22s %18.6f %18.6f\n", "optimised lnL", res.Opt64, res.Opt32)
	fmt.Fprintf(w, "%22s %18d %18d\n", "store bytes/vector", res.VecBytes64, res.VecBytes32)
	fmt.Fprintf(w, "relative lnL error %.3e (budget %g); f32 sync == f32 async: bit-identical\n",
		res.RelErr, PrecisionAccuracyBudget)
}
