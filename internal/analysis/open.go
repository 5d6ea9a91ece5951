package analysis

import (
	"fmt"

	"oocphylo/internal/obs"
	"oocphylo/internal/ooc"
	"oocphylo/internal/plf"
)

// Sizing is the memory shape of an analysis, known before anything is
// allocated — what the daemon's admission control decides on.
type Sizing struct {
	// NumVectors is n, one ancestral vector per inner node; VecLen its
	// length in float64s, VecBytes the same in bytes.
	NumVectors, VecLen int
	VecBytes           int64
	// Need is the all-in-RAM footprint n·VecBytes. OutOfCore reports a
	// MemLimit below it; Quota is then MemLimit, else Need.
	Need, Quota int64
	OutOfCore   bool
}

// Size computes the memory shape of in under spec. A tree that does not
// span the alignment (a Newick or a checkpoint from other data) and a
// quota that cannot hold the PLF's three-vector working set are errors
// here, before any store is opened.
func Size(spec Spec, in *Inputs) (Sizing, error) {
	if tips, taxa := in.Tree.NumTips, in.Patterns.NumTaxa(); tips != taxa {
		return Sizing{}, fmt.Errorf("analysis: tree has %d tips, alignment %d taxa", tips, taxa)
	}
	vecLen := plf.VectorLength(in.Model, in.Patterns.NumPatterns())
	sz := Sizing{NumVectors: in.Tree.NumInner(), VecLen: vecLen, VecBytes: int64(vecLen) * 8}
	sz.Need = int64(sz.NumVectors) * sz.VecBytes
	sz.Quota = sz.Need
	if spec.MemLimit > 0 && spec.MemLimit < sz.Need {
		sz.OutOfCore, sz.Quota = true, spec.MemLimit
		if sz.Quota < ooc.MinSlots*sz.VecBytes {
			return Sizing{}, fmt.Errorf(
				"analysis: memory limit %d B holds only %d vectors of %d B; the PLF needs at least %d (m >= 3)",
				sz.Quota, sz.Quota/sz.VecBytes, sz.VecBytes, ooc.MinSlots)
		}
	}
	return sz, nil
}

// Run is a live analysis. Manager is nil for an in-RAM run; Stack is never nil (empty in RAM), so its typed layers can be
// asked for without a guard. The fields are fixed from Open to Close.
type Run struct {
	Engine   *plf.Engine
	Manager  *ooc.Manager
	Stack    *ooc.Stack
	Strategy ooc.Strategy
	Sizing   Sizing
}

// Open brings in to life under spec and opts: the vectors in RAM, or —
// when sz says out of core — behind a manager whose slot pool is what
// grant bytes buy over the store stack opts.Stack describes, created
// fresh. A resume differs only in where in came from (a checkpoint's
// Restore): the engine starts all-invalid and recomputes every vector
// before reading it. On error nothing is left open.
func Open(spec Spec, opts Options, in *Inputs, sz Sizing, grant int64) (r *Run, err error) {
	n := sz.NumVectors
	// Built before the fits-in-RAM decision, so a mistyped name fails
	// even when the data happens to fit.
	strat, err := ooc.StrategyByName(spec.Strategy, n, in.Tree, spec.Seed+1)
	if err != nil {
		return nil, err
	}
	r = &Run{Stack: &ooc.Stack{}, Strategy: strat, Sizing: sz}
	defer func() {
		if err != nil {
			r.Close()
			r = nil
		}
	}()

	var prov plf.VectorProvider
	if sz.OutOfCore {
		stack := opts.Stack
		stack.NumVectors, stack.VectorLen = n, sz.VecLen
		var st *ooc.Stack
		if st, err = ooc.OpenStack(stack); err != nil {
			return r, err
		}
		r.Stack = st
		// The grant pays for the store's heap and the pipeline's spare
		// buffers first, the same charge Manager.MemOverheadBytes reports
		// to Resize once the manager exists.
		overhead := ooc.StoreMemOverhead(st.Store)
		if !opts.Sync {
			overhead += ooc.PipelineBytes(sz.VecLen)
		}
		r.Manager, err = ooc.NewManager(ooc.Config{
			NumVectors: n, VectorLen: sz.VecLen,
			Slots:    ooc.SlotsForBytes(grant, overhead, sz.VecBytes, n),
			Strategy: strat, ReadSkipping: !opts.NoReadSkipping, Store: st.Store,
			Async: !opts.Sync,
		})
		if err != nil {
			return r, err
		}
		r.Manager.Instrument(opts.Registry)
		ooc.InstrumentTieredStore(opts.Registry, st.Tier)
		prov = r.Manager
	} else {
		prov = plf.NewInMemoryProvider(n, sz.VecLen)
	}

	r.Engine, err = plf.New(in.Tree, in.Patterns, in.Model, prov)
	if err != nil {
		return r, err
	}
	kernel := spec.Kernel
	if kernel == "" {
		kernel = plf.KernelAuto
	}
	// Before Instrument, which publishes the kernel's identity.
	if err = r.Engine.SetKernel(kernel); err != nil {
		return r, err
	}
	r.Engine.Instrument(opts.Registry)
	r.Engine.SetWorkers(spec.Workers)
	r.Engine.EnablePrefetch(!opts.Sync)
	return r, nil
}

// Resize moves an out-of-core run's slot pool to what grant bytes buy.
// It reports whether the pool changed. Like every engine call it
// belongs on the goroutine that drives the engine, between operations.
func (r *Run) Resize(grant int64) (bool, error) {
	if r.Manager == nil {
		return false, nil
	}
	target := ooc.SlotsForBytes(grant, r.Manager.MemOverheadBytes(), r.Sizing.VecBytes, r.Sizing.NumVectors)
	if target == r.Manager.Slots() {
		return false, nil
	}
	if err := r.Manager.Resize(target); err != nil {
		return false, err
	}
	return true, nil
}

// SetSpan attributes the run's work to sp: the engine's (and through
// it the manager's) child spans, and the tiered store's remote requests
// when the stack has one. nil detaches. Like every engine call it
// belongs on the goroutine that drives the engine.
func (r *Run) SetSpan(sp *obs.Span) {
	r.Engine.SetSpan(sp)
	if r.Stack.Tier != nil {
		r.Stack.Tier.SetSpan(sp)
	}
}

// Close tears the run down: the engine's worker pool, then the manager
// (draining in-flight I/O while the stores still exist), then the store
// stack and any temp files it created. It returns the first error.
func (r *Run) Close() error {
	if r.Engine != nil {
		r.Engine.Close()
	}
	var first error
	if r.Manager != nil {
		first = r.Manager.Close()
	}
	if err := r.Stack.Close(); first == nil {
		first = err
	}
	return first
}
