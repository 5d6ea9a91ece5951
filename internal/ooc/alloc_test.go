package ooc

import (
	"fmt"
	"path/filepath"
	"testing"

	"oocphylo/internal/plf"
	"oocphylo/internal/sim"
)

// TestWarmTraversalAllocs pins the out-of-core half of the hot path's
// recycling contract (plf's TestHotPathAllocs is the engine's half): a
// warm full traversal at f = 0.25 over a file that answers at once
// (sync) or is made to lag (async, see lagging) allocates nothing. The
// pipeline recycles its write requests, and the pool recycles the
// buffers it gives up. Under the generic kernels every record is full
// width, so the pool pages and every transfer kind runs.
func TestWarmTraversalAllocs(t *testing.T) {
	d, err := sim.NewDataset(sim.Config{Taxa: 64, Sites: 400, GammaAlpha: 0.8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	n := d.Tree.NumInner()
	vecLen := plf.VectorLength(d.Model, d.Patterns.NumPatterns())
	for _, kernel := range []string{plf.KernelAuto, plf.KernelGeneric} {
		for _, async := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/async=%v", kernel, async), func(t *testing.T) {
				file, err := NewFileStore(filepath.Join(t.TempDir(), "v.bin"), n, vecLen)
				if err != nil {
					t.Fatal(err)
				}
				defer file.Close()
				var store Store = file
				if async {
					store = lagging(file)
				}
				m, err := NewManager(Config{
					NumVectors: n, VectorLen: vecLen, Slots: SlotsForFraction(0.25, n),
					Strategy: NewLRU(n), ReadSkipping: true, Store: store,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer m.Close()
				tr := d.Tree.Clone()
				e, err := plf.New(tr, d.Patterns, d.Model, m)
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				if err := e.SetKernel(kernel); err != nil {
					t.Fatal(err)
				}
				traverse := func() {
					if err := e.FullTraversal(tr.Edges[0]); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < 5; i++ {
					traverse()
				}
				if a := testing.AllocsPerRun(20, traverse); a != 0 {
					t.Errorf("%v allocations per warm traversal, want 0", a)
				}
				if st := m.Stats(); st.Misses == 0 {
					t.Errorf("no misses: %+v", st)
				}
			})
		}
	}
}
