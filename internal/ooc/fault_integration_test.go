package ooc_test

import (
	"testing"

	"oocphylo/internal/ooc"
	"oocphylo/internal/plf"
)

// TestFaultTransientReadRecomputed: the manager re-issues nothing. An
// injected read EIO reaches the engine as an unreadable vector, which
// it recomputes from the vector's children, over a store that answers
// at once (sync) or one made to lag (async, ooc.Lagging), and the
// answer stays bit-identical to a clean run's.
func TestFaultTransientReadRecomputed(t *testing.T) {
	run := func(t *testing.T, async bool, faults *ooc.FaultConfig) (float64, []float64, ooc.FaultStats, int64) {
		t.Helper()
		const n, sites, seed = 24, 120, 31
		tr, pats, mdl := buildCase(t, n, sites, seed)
		inner := tr.NumInner()
		vecLen := plf.VectorLength(mdl, pats.NumPatterns())
		var store ooc.Store = ooc.NewMemStore(inner, vecLen)
		if async {
			store = ooc.Lagging(store)
		}
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
