package plf

// Degraded-mode tests: a provider whose remote tier is unavailable
// (circuit breaker open) must turn every valid-but-remote read into a
// local newview, and a read that fails
// mid-pass with a FailedVector error must be absorbed by the recovery
// path — in both cases with a bit-identical likelihood.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"oocphylo/internal/ooc"
	"oocphylo/internal/tree"
)

// outageProvider stands in for a tiered store riding out a network
// outage: scripted fetch costs, a Degraded toggle, and one-shot read
// failures carrying the failed vector index.
type outageProvider struct {
	*InMemoryProvider
	cost     map[int]time.Duration
	degraded bool
	failOnce map[int]bool // vi -> fail the next non-write access
	failures int
}

func (p *outageProvider) FetchCost(vi int) (time.Duration, bool) {
	d, ok := p.cost[vi]
	return d, ok
}

func (p *outageProvider) Degraded() bool { return p.degraded }

// unreadableError mimics ooc.VectorReadError without importing ooc —
// the engine matches the FailedVector method structurally.
type unreadableError struct{ vi int }

func (e *unreadableError) Error() string {
	return fmt.Sprintf("test: vector %d unreadable", e.vi)
}
func (e *unreadableError) FailedVector() int { return e.vi }

func (p *outageProvider) Vector(vi int, write bool, pinned ...int) ([]float64, error) {
	if !write && p.failOnce[vi] {
		delete(p.failOnce, vi)
		p.failures++
		return nil, &unreadableError{vi: vi}
	}
	return p.InMemoryProvider.Vector(vi, write, pinned...)
}

func outageRig(t *testing.T, seed int64, taxa int) (*tree.Tree, *Engine, *outageProvider) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	names := tipNames(taxa)
	tr, err := tree.RandomTopology(names, rng, 0.02, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	pats := randomAlignment(t, names, 60, rng, 0)
	m := randomModel(t, rng, 0, true)
	prov := &outageProvider{
		InMemoryProvider: NewInMemoryProvider(tr.NumInner(), VectorLength(m, pats.NumPatterns())),
		cost:             map[int]time.Duration{},
		failOnce:         map[int]bool{},
	}
	e, err := New(tr, pats, m, prov)
	if err != nil {
		t.Fatal(err)
	}
	return tr, e, prov
}

// TestDegradedModeConvertsRemoteReads pins the breaker-open plan
// conversion: while Degraded, every valid-but-remote read is converted
// to a local recompute and the likelihood does not move a bit.
func TestDegradedModeConvertsRemoteReads(t *testing.T) {
	tr, e, prov := outageRig(t, 31, 16)
	want, err := e.LogLikelihood()
	if err != nil {
		t.Fatal(err)
	}

	// Outage: all vectors remote, breaker open.
	for vi := 0; vi < tr.NumInner(); vi++ {
		prov.cost[vi] = 20 * time.Millisecond
	}
	prov.degraded = true
	edge := tr.Edges[len(tr.Edges)/2]
	if _, err := e.LogLikelihoodAt(edge); err != nil {
		t.Fatal(err)
	}
	got, err := e.LogLikelihood()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("degraded likelihood %v != clean %v (must be bit-identical)", got, want)
	}
	if e.Stats.DegradedRecomputes == 0 {
		t.Error("no degraded recomputes despite remote-priced reads under an open breaker")
	}

	// Recovery: breaker closed again — the (still remote) costs alone
	// must not convert anything while the threshold policy is off.
	prov.degraded = false
	fired := e.Stats.DegradedRecomputes
	if _, err := e.LogLikelihoodAt(tr.Edges[1]); err != nil {
		t.Fatal(err)
	}
	if e.Stats.DegradedRecomputes != fired {
		t.Errorf("degraded recomputes after recovery: %d -> %d", fired, e.Stats.DegradedRecomputes)
	}
}

// flakyStore fails the next read of each marked vector once, the way a
// tiered store does while its circuit is open. Reads arrive from the
// manager's fetch workers, hence the lock.
type flakyStore struct {
	ooc.Store
	mu       sync.Mutex
	failOnce map[int]bool
	failures int
}

func (s *flakyStore) ReadVector(vi int, dst []float64) error {
	s.mu.Lock()
	fail := s.failOnce[vi]
	if fail {
		delete(s.failOnce, vi)
		s.failures++
	}
	s.mu.Unlock()
	if fail {
		return fmt.Errorf("test: vector %d: %w", vi, ooc.ErrCircuitOpen)
	}
	return s.Store.ReadVector(vi, dst)
}

// TestUnreadableVectorRecoveredMidPass covers the breaker tripping (or
// retries exhausting) in the middle of a pass: reads failing with a
// FailedVector error are invalidated and recomputed from their
// children, and the evaluation still lands bit-identical. The sync row
// fails each read at its own step through a scripted provider; the
// async row runs a real out-of-core manager whose fetch workers stage
// the plan's reads, so a failed read surfaces at the join — inside the
// parent's newview — and must come back under the same rule.
func TestUnreadableVectorRecoveredMidPass(t *testing.T) {
	t.Run("sync", func(t *testing.T) {
		tr, e, prov := outageRig(t, 37, 16)
		edge := tr.Edges[len(tr.Edges)/3]
		failAll := func() {
			// Every inner vector's next read fails exactly once — the
			// worst mid-pass outage the recovery budget must absorb
			// (recomputes ground at tips, which are always local).
			for vi := 0; vi < tr.NumInner(); vi++ {
				prov.failOnce[vi] = true
			}
		}
		checkUnreadableRecovered(t, e, edge, edge, failAll, func() int { return prov.failures })
	})
	t.Run("async", func(t *testing.T) {
		tr, e, _ := outageRig(t, 37, 16)
		n := tr.NumInner()
		store := &flakyStore{Store: ooc.NewMemStore(n, e.prov.VectorLen()), failOnce: map[int]bool{}}
		mgr, err := ooc.NewManager(ooc.Config{
			NumVectors: n, VectorLen: e.prov.VectorLen(), Slots: 4,
			Strategy: ooc.NewLRU(n), ReadSkipping: true, Store: store, Async: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer mgr.Close()
		if e, err = New(tr, e.P, e.M, mgr); err != nil {
			t.Fatal(err)
		}
		e.EnablePrefetch(true)
		failAll := func() {
			store.mu.Lock()
			for vi := 0; vi < n; vi++ {
				store.failOnce[vi] = true
			}
			store.mu.Unlock()
		}
		failures := func() int {
			store.mu.Lock()
			defer store.mu.Unlock()
			return store.failures
		}
		// Four slots over fourteen vectors: hopping to the far edge and
		// back re-reads evicted subtree roots from the store.
		checkUnreadableRecovered(t, e, tr.Edges[0], tr.Edges[len(tr.Edges)-1], failAll, failures)
		if mgr.PipelineStats().JoinedFetches == 0 {
			t.Error("no demand access joined a staged read: the async path was not exercised")
		}
	})
}

// checkUnreadableRecovered evaluates at edge, moves the engine away to
// via, arms the outage and evaluates at edge again.
func checkUnreadableRecovered(t *testing.T, e *Engine, edge, via *tree.Edge, failAll func(), failures func() int) {
	t.Helper()
	want, err := e.LogLikelihoodAt(edge)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.LogLikelihoodAt(via); err != nil {
		t.Fatal(err)
	}
	failAll()
	got, err := e.LogLikelihoodAt(edge)
	if err != nil {
		t.Fatalf("pass failed despite recovery path: %v", err)
	}
	if got != want {
		t.Fatalf("recovered likelihood %v != clean %v (must be bit-identical)", got, want)
	}
	if failures() == 0 {
		t.Fatal("injection never fired — the pass read nothing")
	}
	if e.Stats.Recoveries == 0 {
		t.Error("reads failed but Stats.Recoveries == 0")
	}
}
