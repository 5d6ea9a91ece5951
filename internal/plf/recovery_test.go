package plf

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"oocphylo/internal/bio"
	"oocphylo/internal/model"
	"oocphylo/internal/ooc"
	"oocphylo/internal/ooc/remote"
	"oocphylo/internal/tree"
)

// corruptionRig is an engine over Manager → MemStore, with the
// MemStore exposed so tests can corrupt vectors behind the manager's
// back.
type corruptionRig struct {
	e     *Engine
	mgr   *ooc.Manager
	inner *ooc.MemStore
}

func newCorruptionRig(t *testing.T, taxa, sites, slots int, seed int64) *corruptionRig {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	names := tipNames(taxa)
	pats := randomAlignment(t, names, sites, rng, bio.DNA)
	tr, err := tree.RandomTopology(names, rng, 0.05, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.NewJC(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetGamma(0.8, 4); err != nil {
		t.Fatal(err)
	}
	vecLen := VectorLength(m, pats.NumPatterns())
	n := tr.NumInner()
	inner := ooc.NewMemStore(n, vecLen)
	mgr, err := ooc.NewManager(ooc.Config{
		NumVectors: n, VectorLen: vecLen, Slots: slots,
		Strategy: ooc.NewLRU(n), ReadSkipping: true, Store: inner,
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(tr, pats, m, mgr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	return &corruptionRig{e: e, mgr: mgr, inner: inner}
}

// corruptNonResident flips data in every vector that is written to the
// store but not currently resident in RAM, returning how many it hit.
// A Flush first lands the queued write-backs, so the writer goroutine
// is idle while the store is edited behind the manager's back.
func (r *corruptionRig) corruptNonResident(t *testing.T) int {
	t.Helper()
	if err := r.mgr.Flush(); err != nil {
		t.Fatal(err)
	}
	n := r.mgr.NumVectors()
	buf := make([]float64, r.mgr.VectorLen())
	hit := 0
	for vi := 0; vi < n; vi++ {
		if r.mgr.Resident(vi) {
			continue
		}
		if err := r.inner.ReadVector(vi, buf); err != nil {
			t.Fatal(err)
		}
		written := false
		for _, x := range buf {
			if x != 0 {
				written = true
				break
			}
		}
		if !written {
			continue
		}
		// The first word lies inside every record, however short.
		buf[0] += 1.0
		if err := r.inner.WriteVector(vi, buf); err != nil {
			t.Fatal(err)
		}
		hit++
	}
	return hit
}

// TestFaultCorruptionRecoveryDeterministic runs the same edge-hopping
// workload on a clean rig and on a rig whose stored vectors are
// corrupted mid-run: the engine must detect every corrupt fault-in,
// recompute the lost subtrees, and land on bit-identical likelihoods.
func TestFaultCorruptionRecoveryDeterministic(t *testing.T) {
	const taxa, sites, slots, seed = 16, 64, 3, 11

	workload := func(rig *corruptionRig, corrupt bool) []float64 {
		t.Helper()
		e := rig.e
		var lnls []float64
		first, last := e.T.Edges[0], e.T.Edges[len(e.T.Edges)-1]
		lnl, err := e.LogLikelihoodAt(first)
		if err != nil {
			t.Fatal(err)
		}
		lnls = append(lnls, lnl)
		if corrupt {
			if hit := rig.corruptNonResident(t); hit == 0 {
				t.Fatal("no stored vectors to corrupt; shrink slots")
			}
		}
		// Hopping to the far edge re-orients the path between the two
		// edges, reading valid subtree roots — some of them corrupt.
		lnl, err = e.LogLikelihoodAt(last)
		if err != nil {
			t.Fatal(err)
		}
		lnls = append(lnls, lnl)
		// And back, over the now-healed store.
		lnl, err = e.LogLikelihoodAt(first)
		if err != nil {
			t.Fatal(err)
		}
		return append(lnls, lnl)
	}

	clean := workload(newCorruptionRig(t, taxa, sites, slots, seed), false)
	rig := newCorruptionRig(t, taxa, sites, slots, seed)
	faulted := workload(rig, true)

	for i := range clean {
		if clean[i] != faulted[i] {
			t.Errorf("lnl[%d]: clean %v, faulted %v (recovery changed the answer)", i, clean[i], faulted[i])
		}
	}
	if rig.e.Stats.Recoveries == 0 {
		t.Error("workload read corrupted vectors but Stats.Recoveries == 0")
	}
	if rig.mgr.PipelineStats().CorruptReads == 0 {
		t.Error("manager saw no corrupt reads")
	}
	if faulted[1] != clean[1] {
		t.Error("post-corruption likelihood diverged")
	}
}

// TestFaultRecoveryBudgetExhausts ensures a store that corrupts every
// read surfaces an error instead of recomputing forever.
func TestFaultRecoveryBudgetExhausts(t *testing.T) {
	rig := newCorruptionRig(t, 12, 32, 3, 13)
	e := rig.e
	if _, err := e.LogLikelihoodAt(e.T.Edges[0]); err != nil {
		t.Fatal(err)
	}
	// Corrupt continuously: after every traversal attempt, re-corrupt
	// whatever was flushed. The recovery budget must eventually stop
	// the loop. We simulate "always corrupt" by corrupting and then
	// asking for an edge evaluation in a loop bounded well above the
	// engine's budget.
	budget := 2*e.T.NumInner() + 8
	sawError := false
	for i := 0; i < budget+4; i++ {
		if rig.corruptNonResident(t) == 0 {
			break
		}
		if _, err := e.LogLikelihoodAt(e.T.Edges[len(e.T.Edges)-1-i%2]); err != nil {
			sawError = true
			break
		}
	}
	// Either the engine kept healing (every pass converged before the
	// budget) or it gave up with an error — both are sound; an infinite
	// loop or a wrong likelihood is not. Reaching this line at all
	// proves termination; cross-check the counters moved.
	if e.Stats.Recoveries == 0 && !sawError {
		t.Error("no recoveries and no error despite repeated corruption")
	}
}

// outageProvider stands in for a store riding out a network outage:
// one-shot read failures carrying the failed vector index.
type outageProvider struct {
	*InMemoryProvider
	failOnce map[int]bool // vi -> fail the next non-write access
	failures int
}

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
		failOnce:         map[int]bool{},
	}
	e, err := New(tr, pats, m, prov)
	if err != nil {
		t.Fatal(err)
	}
	return tr, e, prov
}

// flakyStore fails the next read of each marked vector once, the way a
// tiered store does while its circuit is open, and counts the reads
// that reach it. The lock keeps it safe whichever goroutine reads.
type flakyStore struct {
	ooc.Store
	mu       sync.Mutex
	failOnce map[int]bool
	failures int
	reads    int
}

func (s *flakyStore) ReadVector(vi int, dst []float64) error {
	s.mu.Lock()
	s.reads++
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

func (s *flakyStore) counts() (reads, failures int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reads, s.failures
}

// TestUnreadableVectorRecoveredMidPass covers the breaker tripping (or
// retries exhausting) in the middle of a pass: reads failing with a
// FailedVector error are invalidated and recomputed from their
// children, and the evaluation still lands bit-identical. The sync row
// fails each read at its own step through a scripted provider; the
// async row runs a real out-of-core manager, its write-backs on the
// writer goroutine, so a failed read surfaces on the manager's demand
// path — inside the parent's newview — and must come back under the
// same rule. The
// breaker-open row is an outage that lasts the whole pass: the same
// rule, and no planner, must absorb it with no GET leaving. The
// rotted-cache and rotted-backing-file rows corrupt every vector in the
// file under a stack opened with no options: the stack's checksum names
// each vector and the same rule recomputes it.
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
			Strategy: ooc.NewLRU(n), ReadSkipping: true, Store: store,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer mgr.Close()
		if e, err = New(tr, e.P, e.M, mgr); err != nil {
			t.Fatal(err)
		}
		failAll := func() {
			store.mu.Lock()
			for vi := 0; vi < n; vi++ {
				store.failOnce[vi] = true
			}
			store.mu.Unlock()
		}
		failures := func() int {
			_, f := store.counts()
			return f
		}
		// Four slots over fourteen vectors: hopping to the far edge and
		// back re-reads evicted subtree roots from the store.
		checkUnreadableRecovered(t, e, tr.Edges[0], tr.Edges[len(tr.Edges)-1], failAll, failures)
	})
	t.Run("breaker open", func(t *testing.T) {
		// A persistent outage: a real tier whose breaker stays open for
		// the whole pass, so every read it cannot serve from its cache
		// short-circuits until the engine rewrites the vector.
		tr, e, _ := outageRig(t, 37, 16)
		n, vecLen := tr.NumInner(), e.prov.VectorLen()
		remote := &flakyStore{Store: ooc.NewMemStore(n, vecLen)}
		ts, err := ooc.NewTieredStore(remote, ooc.TieredConfig{
			NumVectors: n, VectorLen: vecLen, CacheDir: t.TempDir(), CacheVectors: 2,
			Breaker: ooc.BreakerConfig{Threshold: 1, Cooldown: time.Hour},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer ts.Close()
		mgr, err := ooc.NewManager(ooc.Config{
			NumVectors: n, VectorLen: vecLen, Slots: 4,
			Strategy: ooc.NewLRU(n), ReadSkipping: true, Store: ts,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer mgr.Close()
		if e, err = New(tr, e.P, e.M, mgr); err != nil {
			t.Fatal(err)
		}
		var gets int
		openBreaker := func() {
			ts.Breaker().Failure() // one failure trips a threshold of 1
			gets, _ = remote.counts()
		}
		shortCircuits := func() int { return int(ts.Stats().ShortCircuits) }
		checkUnreadableRecovered(t, e, tr.Edges[0], tr.Edges[len(tr.Edges)-1], openBreaker, shortCircuits)
		if !ts.Stats().Degraded {
			t.Error("the breaker closed during the pass: the outage was not persistent")
		}
		// TierStats.RemoteReads counts the tier's misses, refused ones
		// too; the backend's own count is the GETs that left.
		if now, _ := remote.counts(); now != gets {
			t.Errorf("%d remote GETs while the breaker was open", now-gets)
		}
		t.Logf("recoveries %d, short-circuits %d", e.Stats.Recoveries, ts.Stats().ShortCircuits)
	})
	// A stack opened with no options: the medium checks nothing, so a
	// rotted byte in the tier's cache file or in a local backing file is
	// caught by the manager's checksum table, by vector, and
	// recomputed like any unreadable vector.
	for _, medium := range []string{"rotted cache", "rotted backing file"} {
		t.Run(medium, func(t *testing.T) {
			checkRotRecovered(t, medium == "rotted cache")
		})
	}
}

// checkRotRecovered opens a stack with no options over a remote (or a
// local backing file), then flips a bit in the first word of every
// vector the file holds between two passes at one edge.
func checkRotRecovered(t *testing.T, overRemote bool) {
	tr, e, _ := outageRig(t, 37, 16)
	n, vecLen := tr.NumInner(), e.prov.VectorLen()
	dir := t.TempDir()
	spec := ooc.StackSpec{TieredConfig: ooc.TieredConfig{NumVectors: n, VectorLen: vecLen}}
	file := filepath.Join(dir, "v.bin")
	if overRemote {
		srv, err := remote.NewServer(remote.ServerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		// Every stored vector stays cached, so every one rots.
		spec.URL, spec.CacheDir, spec.CacheVectors = srv.ObjectURL("vecs"), dir, n
		file = filepath.Join(dir, "cache.vec")
	} else {
		spec.Path = file
	}
	st, err := ooc.OpenStack(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	mgr, err := ooc.NewManager(ooc.Config{
		NumVectors: n, VectorLen: vecLen, Slots: 4,
		Strategy: ooc.NewLRU(n), ReadSkipping: true, Store: st.Store,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	if e, err = New(tr, e.P, e.M, mgr); err != nil {
		t.Fatal(err)
	}
	rot := func() {
		// Settle the write-back pipeline, then flip a bit in the first
		// word, inside every record however short, of each vector slot.
		if err := mgr.Flush(); err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(file, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		var b [1]byte
		for slot := 0; slot < n; slot++ {
			off := int64(slot)*int64(vecLen)*8 + 3
			if _, err := f.ReadAt(b[:], off); err != nil {
				t.Fatal(err)
			}
			b[0] ^= 0x10
			if _, err := f.WriteAt(b[:], off); err != nil {
				t.Fatal(err)
			}
		}
	}
	corrupt := func() int { return int(mgr.PipelineStats().CorruptReads) }
	checkUnreadableRecovered(t, e, tr.Edges[0], tr.Edges[len(tr.Edges)-1], rot, corrupt)
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
	if e.Stats.Recoveries > int64(e.recoveryBudget()) {
		t.Errorf("%d recoveries, over the per-call budget %d", e.Stats.Recoveries, e.recoveryBudget())
	}
}
