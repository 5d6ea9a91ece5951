package experiments

// Batching ablation — the service daemon's throughput claim, measured.
// N concurrent evaluate requests against one session can be answered
// two ways: as N independent engine passes (what N separate one-shot
// CLI runs pay — each rebuilds every ancestral vector on its path, so
// the arm forces Full), or by the daemon's session loop, which runs whatever
// queued while the engine was busy as its next pass. There the cold
// first request pays the traversal and the rest find the ancestral
// vectors still valid, whether they ride its pass or the next one. The
// PLF is deterministic per (tree, model, pattern) triple, so both arms
// return bit-identical likelihoods; the ablation quantifies the
// wall-clock side of that equivalence, the same way the resize and
// async ablations bound THEIR "free in exact arithmetic" claims.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"oocphylo/internal/bio"
	"oocphylo/internal/service"
	"oocphylo/internal/sim"
)

// BatchingAblationConfig describes the coalescing experiment.
type BatchingAblationConfig struct {
	// Taxa and Sites set the dataset dimensions (defaults 64 × 400 —
	// big enough that a full traversal dominates a single evaluate).
	Taxa, Sites int
	// Seed fixes the dataset and starting tree.
	Seed int64
	// Requests is the concurrent client count N (default 8).
	Requests int
	// DataDir is the service data directory (required; the daemon
	// persists session files there).
	DataDir string
}

func (c *BatchingAblationConfig) fill() {
	if c.Taxa == 0 {
		c.Taxa = 64
	}
	if c.Sites == 0 {
		c.Sites = 400
	}
	if c.Requests == 0 {
		c.Requests = 8
	}
}

// BatchingAblationResult compares the two service arms.
type BatchingAblationResult struct {
	// Requests is the concurrent client count N.
	Requests int
	// IndependentExec is the summed engine-execution time of N
	// sequential fresh passes (each request a batch of one, vectors
	// invalidated first — the N-independent-one-shots arm).
	IndependentExec time.Duration
	// CoalescedExec is the summed engine-execution time of the batches
	// the N concurrent requests coalesced into.
	CoalescedExec time.Duration
	// CoalescedBatches counts those batches: typically 2, the cold
	// first request alone and the rest queued behind it.
	CoalescedBatches int
	// Speedup is IndependentExec / CoalescedExec.
	Speedup float64
	// LnLBits is the shared bit pattern of every reply in BOTH arms —
	// the equivalence the speedup is not allowed to buy back.
	LnLBits string
}

// RunBatchingAblation measures coalesced vs independent evaluates
// against a live service session. Any reply differing by a single bit
// from the others — across arms — is an error, not a data point.
func RunBatchingAblation(cfg BatchingAblationConfig) (*BatchingAblationResult, error) {
	cfg.fill()
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("experiments: batching ablation needs a DataDir")
	}
	w, err := newWorkload(sim.Config{Taxa: cfg.Taxa, Sites: cfg.Sites, Seed: cfg.Seed}, false)
	if err != nil {
		return nil, err
	}
	alnPath := filepath.Join(cfg.DataDir, "batching.phy")
	f, err := os.Create(alnPath)
	if err != nil {
		return nil, err
	}
	if err := bio.WritePhylip(f, w.data.Alignment); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}

	srv, err := service.NewServer(service.ServerConfig{DataDir: cfg.DataDir})
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	newSession := func(name string) (*service.Session, error) {
		return srv.CreateSession(service.SessionConfig{
			Name: name, Path: alnPath, Model: "GTR", Alpha: gammaAlpha, Cats: 4, Seed: cfg.Seed,
		})
	}

	// Arm 1 — independent: sequential requests, each forcing the fresh
	// full pass a standalone one-shot run would compute.
	indep, err := newSession("independent")
	if err != nil {
		return nil, err
	}
	res := &BatchingAblationResult{Requests: cfg.Requests}
	var bits string
	for i := 0; i < cfg.Requests; i++ {
		rep, err := indep.Evaluate(service.EvalSpec{Full: true})
		if err != nil {
			return nil, fmt.Errorf("experiments: independent request %d: %w", i, err)
		}
		if bits == "" {
			bits = rep.LnLBits
		} else if rep.LnLBits != bits {
			return nil, fmt.Errorf("experiments: independent request %d: bits %s != %s", i, rep.LnLBits, bits)
		}
		res.IndependentExec += time.Duration(rep.ExecMicros) * time.Microsecond
	}

	// Arm 2 — coalesced: the same N requests, concurrent, against a
	// fresh identically-configured session (so its vectors start cold,
	// exactly like the independent arm's first pass).
	coal, err := newSession("coalesced")
	if err != nil {
		return nil, err
	}
	replies := make([]service.EvalReply, cfg.Requests)
	errs := make([]error, cfg.Requests)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			replies[i], errs[i] = coal.Evaluate(service.EvalSpec{})
		}(i)
	}
	wg.Wait()
	batchExec := make(map[int64]time.Duration)
	for i, rep := range replies {
		if errs[i] != nil {
			return nil, fmt.Errorf("experiments: coalesced request %d: %w", i, errs[i])
		}
		if rep.LnLBits != bits {
			return nil, fmt.Errorf("experiments: coalesced request %d: bits %s != independent %s", i, rep.LnLBits, bits)
		}
		batchExec[rep.Batch] = time.Duration(rep.ExecMicros) * time.Microsecond
	}
	for _, d := range batchExec {
		res.CoalescedExec += d
	}
	res.CoalescedBatches = len(batchExec)
	if res.CoalescedExec > 0 {
		res.Speedup = float64(res.IndependentExec) / float64(res.CoalescedExec)
	}
	res.LnLBits = bits
	return res, nil
}

// WriteBatchingTable renders the result as the EXPERIMENTS.md table.
func WriteBatchingTable(w io.Writer, r *BatchingAblationResult) {
	fmt.Fprintln(w, "| arm | requests | engine passes | exec time | lnL bits |")
	fmt.Fprintln(w, "|---|---|---|---|---|")
	fmt.Fprintf(w, "| independent | %d | %d | %v | %s |\n",
		r.Requests, r.Requests, r.IndependentExec.Round(time.Microsecond), r.LnLBits)
	fmt.Fprintf(w, "| coalesced | %d | %d | %v | %s |\n",
		r.Requests, r.CoalescedBatches, r.CoalescedExec.Round(time.Microsecond), r.LnLBits)
	fmt.Fprintf(w, "\nSpeedup: %.2fx\n", r.Speedup)
}
