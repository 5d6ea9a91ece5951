package ooc_test

import (
	"math"
	"testing"

	"oocphylo/internal/ooc"
	"oocphylo/internal/plf"
)

// TestPrefetchIntegration pins plf.Engine.EnablePrefetch as the no-op
// it is (the benchmark harness still calls it): over the out-of-core
// manager, a full-traversal workload with it on and off gives the same
// likelihood bits and the same manager counters, every read a demand
// read.
func TestPrefetchIntegration(t *testing.T) {
	run := func(prefetch bool) (float64, ooc.Stats) {
		tr, pats, m := buildCase(t, 32, 120, 17)
		vecLen := plf.VectorLength(m, pats.NumPatterns())
		mgr, err := ooc.NewManager(ooc.Config{
			NumVectors: tr.NumInner(),
			VectorLen:  vecLen,
			Slots:      ooc.SlotsForFraction(0.25, tr.NumInner()),
			Strategy:   ooc.NewLRU(tr.NumInner()),
			// Read skipping off so every demand miss costs a read.
			ReadSkipping: false,
			Store:        ooc.NewMemStore(tr.NumInner(), vecLen),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer mgr.Close()
		e, err := plf.New(tr, pats, m, mgr)
		if err != nil {
			t.Fatal(err)
		}
		e.EnablePrefetch(prefetch)
		var lnl float64
		for i := 0; i < 4; i++ {
			if err := e.FullTraversal(tr.Edges[0]); err != nil {
				t.Fatal(err)
			}
			lnl, err = e.LogLikelihoodAt(tr.Edges[0])
			if err != nil {
				t.Fatal(err)
			}
		}
		return lnl, mgr.Stats()
	}

	offLnl, off := run(false)
	onLnl, on := run(true)
	if math.Float64bits(offLnl) != math.Float64bits(onLnl) {
		t.Fatalf("EnablePrefetch changed the likelihood: %v vs %v", offLnl, onLnl)
	}
	if on != off {
		t.Errorf("EnablePrefetch moved a counter:\n off %+v\n on  %+v", off, on)
	}
	if on.Reads == 0 || on.Reads != on.Misses {
		t.Errorf("want every miss a demand read: %+v", on)
	}
}

// TestPrefetchNoopOnInMemoryProvider ensures EnablePrefetch is safe on
// providers that cannot prefetch.
func TestPrefetchNoopOnInMemoryProvider(t *testing.T) {
	tr, pats, m := buildCase(t, 12, 60, 19)
	e, err := plf.New(tr, pats, m,
		plf.NewInMemoryProvider(tr.NumInner(), plf.VectorLength(m, pats.NumPatterns())))
	if err != nil {
		t.Fatal(err)
	}
	e.EnablePrefetch(true)
	if _, err := e.LogLikelihood(); err != nil {
		t.Fatal(err)
	}
}
