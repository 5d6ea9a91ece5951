package plf

import (
	"math"
	"math/rand"
	"testing"

	"oocphylo/internal/bio"
	"oocphylo/internal/model"
	"oocphylo/internal/ooc"
	"oocphylo/internal/tree"
)

// TestResizeAtSafePointsBitIdentical drives the same likelihood
// workload through a fixed-m engine and through one whose safe-point
// hook shrinks the slot pool to MinSlots and regrows it to the full
// pool on a fixed schedule. Slot-count changes may only move I/O
// around — every computed likelihood must match the fixed-m run bit
// for bit.
func TestResizeAtSafePointsBitIdentical(t *testing.T) {
	const taxa, sites, slots, seed = 20, 200, 12, 41

	rng := rand.New(rand.NewSource(seed))
	names := tipNames(taxa)
	pats := randomAlignment(t, names, sites, rng, bio.DNA)
	tr, err := tree.RandomTopology(names, rng, 0.05, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.NewJC(4)
	if err != nil {
		t.Fatal(err)
	}
	vecLen := VectorLength(m, pats.NumPatterns())
	n := tr.NumInner()

	newRig := func(tt *tree.Tree) (*Engine, *ooc.Manager) {
		mgr, err := ooc.NewManager(ooc.Config{
			NumVectors: n, VectorLen: vecLen, Slots: slots,
			Strategy: ooc.NewLRU(n), ReadSkipping: true,
			Store: ooc.NewMemStore(n, vecLen),
		})
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(tt, pats, m, mgr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { mgr.Close() })
		return e, mgr
	}

	// The workload: evaluate at every edge with periodic invalidations,
	// so plenty of newview traversals (and thus safe points) run.
	workload := func(e *Engine) []float64 {
		var lnls []float64
		for i, ed := range e.T.Edges {
			if i%7 == 0 {
				e.InvalidateAll()
			}
			lnl, err := e.LogLikelihoodAt(ed)
			if err != nil {
				t.Fatal(err)
			}
			lnls = append(lnls, lnl)
		}
		return lnls
	}

	eFix, _ := newRig(tr.Clone())
	want := workload(eFix)

	// Every 5th safe point flips the pool between the floor and the
	// full pool, so shrinks land mid-traversal with residents to evict.
	eOsc, mgrOsc := newRig(tr.Clone())
	calls := 0
	eOsc.SetSafePoint(func() error {
		calls++
		if calls%5 != 0 {
			return nil
		}
		if (calls/5)%2 == 1 {
			return mgrOsc.Resize(ooc.MinSlots)
		}
		return mgrOsc.Resize(slots)
	})
	got := workload(eOsc)

	st := mgrOsc.ResizeStats()
	if st.Shrinks == 0 || st.Grows == 0 || st.Evictions == 0 {
		t.Fatalf("pool never oscillated: %+v", st)
	}
	if len(got) != len(want) {
		t.Fatalf("workload lengths differ: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("lnL[%d] diverged under oscillation: %.17g != %.17g (after %d shrinks, %d grows)",
				i, got[i], want[i], st.Shrinks, st.Grows)
		}
	}
	if err := mgrOsc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
