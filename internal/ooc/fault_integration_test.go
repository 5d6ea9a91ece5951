package ooc_test

import (
	"bytes"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"oocphylo/internal/ooc"
	"oocphylo/internal/plf"
)

// TestFaultTransientReadRecomputed: the manager re-issues nothing. An
// injected read EIO reaches the engine as an unreadable vector, which
// it recomputes from the vector's children, whether the read was a
// demand read on the compute thread (sync: nothing staged) or a fetch
// worker's stage-in (async: one-step prefetch), and the answer stays
// bit-identical to a clean run's.
func TestFaultTransientReadRecomputed(t *testing.T) {
	run := func(t *testing.T, async bool, faults *ooc.FaultConfig) (float64, []float64, ooc.FaultStats, int64) {
		t.Helper()
		const n, sites, seed = 24, 120, 31
		tr, pats, mdl := buildCase(t, n, sites, seed)
		inner := tr.NumInner()
		vecLen := plf.VectorLength(mdl, pats.NumPatterns())
		var store ooc.Store = ooc.NewMemStore(inner, vecLen)
		var fs *ooc.FaultStore
		if faults != nil {
			fs = ooc.NewFaultStore(store, *faults)
			store = fs
		}
		mgr, err := ooc.NewManager(ooc.Config{
			NumVectors: inner, VectorLen: vecLen,
			Slots:    ooc.SlotsForFraction(0.25, inner),
			Strategy: ooc.NewLRU(inner), ReadSkipping: true,
			Store: store,
		})
		if err != nil {
			t.Fatal(err)
		}
		e, err := plf.New(tr, pats, mdl, mgr)
		if err != nil {
			t.Fatal(err)
		}
		e.EnablePrefetch(async)
		lnl, lens := workload(t, e, tr)
		if err := mgr.Close(); err != nil {
			t.Fatal(err)
		}
		if mgr.Stats().Reads == 0 {
			t.Fatal("the workload never read from the store: the arm checks nothing")
		}
		var st ooc.FaultStats
		if fs != nil {
			st = fs.Stats()
		}
		return lnl, lens, st, e.Stats.Recoveries
	}
	for _, async := range []bool{false, true} {
		name := map[bool]string{false: "sync", true: "async"}[async]
		t.Run(name, func(t *testing.T) {
			want, wantLens, _, _ := run(t, async, nil)
			got, gotLens, st, recovered := run(t, async, &ooc.FaultConfig{Seed: 4, PReadErr: 0.2, MaxReadErrs: 6})
			if st.ReadErrs == 0 {
				t.Fatalf("no read EIO injected: %+v", st)
			}
			if recovered == 0 {
				t.Errorf("%d read EIOs injected, but the engine recomputed nothing", st.ReadErrs)
			}
			if got != want {
				t.Errorf("lnL %x after %d read EIOs, want %x", got, st.ReadErrs, want)
			}
			for i := range wantLens {
				if gotLens[i] != wantLens[i] {
					t.Fatalf("branch %d: %v after read EIOs, want %v", i, gotLens[i], wantLens[i])
				}
			}
		})
	}
}

// flipFetched flips one bit of the first read a fetch worker makes once
// armed: below the manager, in a prefetch's transfer.
type flipFetched struct {
	ooc.Store
	armed atomic.Bool
	flips atomic.Int32
}

func (s *flipFetched) ReadVector(vi int, dst []float64) error {
	if err := s.Store.ReadVector(vi, dst); err != nil {
		return err
	}
	if s.armed.Load() && onFetchWorker() && s.armed.CompareAndSwap(true, false) {
		dst[0] = math.Float64frombits(math.Float64bits(dst[0]) ^ 1)
		s.flips.Add(1)
	}
	return nil
}

// onFetchWorker reports whether the caller is one of the pipeline's
// fetch workers.
func onFetchWorker() bool {
	buf := make([]byte, 1<<12)
	return bytes.Contains(buf[:runtime.Stack(buf, false)], []byte("fetchWorker"))
}

// TestFaultPrefetchFlipCaughtByFetchWorker: a bit flipped under the
// manager in a prefetch's read is caught by the fetch worker's check;
// the demand access that joins the fetch reports it, the manager counts
// one corrupt read, and the engine recomputes the vector, so the
// likelihood is bit-identical to the clean pass's.
func TestFaultPrefetchFlipCaughtByFetchWorker(t *testing.T) {
	const n, sites, seed = 24, 120, 31
	tr, pats, mdl := buildCase(t, n, sites, seed)
	inner := tr.NumInner()
	vecLen := plf.VectorLength(mdl, pats.NumPatterns())
	store := &flipFetched{Store: ooc.NewMemStore(inner, vecLen)}
	mgr, err := ooc.NewManager(ooc.Config{
		NumVectors: inner, VectorLen: vecLen, Slots: 4,
		Strategy: ooc.NewLRU(inner), ReadSkipping: true, Store: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	e, err := plf.New(tr, pats, mdl, mgr)
	if err != nil {
		t.Fatal(err)
	}
	e.EnablePrefetch(true)
	edge, via := tr.Edges[0], tr.Edges[len(tr.Edges)-1]
	want, err := e.LogLikelihoodAt(edge)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.LogLikelihoodAt(via); err != nil {
		t.Fatal(err)
	}
	before := mgr.PipelineStats().CorruptReads
	store.armed.Store(true)
	got, err := e.LogLikelihoodAt(edge)
	if err != nil {
		t.Fatal(err)
	}
	if store.flips.Load() != 1 {
		t.Fatal("no fetch worker read the store: the pass prefetched nothing")
	}
	if cr := mgr.PipelineStats().CorruptReads - before; cr != 1 {
		t.Errorf("%d corrupt reads counted, want the one flipped fetch", cr)
	}
	if e.Stats.Recoveries == 0 {
		t.Error("the engine recomputed nothing")
	}
	if got != want {
		t.Errorf("lnL %x after the flipped fetch, want %x", got, want)
	}
}
