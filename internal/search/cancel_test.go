package search

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"oocphylo/internal/sim"
	"oocphylo/internal/tree"
)

func TestRunCtxCanceledBeforeRounds(t *testing.T) {
	d, err := sim.NewDataset(sim.Config{Taxa: 10, Sites: 200, GammaAlpha: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	e := makeEngine(t, d, startTree(t, d, 6))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := New(e, Options{MaxRounds: 3}).RunCtx(ctx)
	var itr *Interrupted
	if !errors.As(err, &itr) {
		t.Fatalf("err = %v, want *Interrupted", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Error("Interrupted does not unwrap to context.Canceled")
	}
	// Cancelled before the first round: the initial smoothing already
	// ran, Progress names round 0 and the smoothed likelihood.
	if itr.Progress.Round != 0 {
		t.Errorf("Progress.Round = %d, want 0", itr.Progress.Round)
	}
	if res == nil || res.LnL != itr.Progress.LnL {
		t.Errorf("partial result lnL %v disagrees with Progress %v", res.LnL, itr.Progress.LnL)
	}
}

func TestRunCtxCancelMidSweepLeavesConsistentTree(t *testing.T) {
	d, err := sim.NewDataset(sim.Config{Taxa: 14, Sites: 300, GammaAlpha: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	e := makeEngine(t, d, startTree(t, d, 8))
	ctx, cancel := context.WithCancel(context.Background())
	s := New(e, Options{SPRRadius: 5, MaxRounds: 4})
	// Cancel from inside the first round via the round callback's
	// sibling hook: there is none mid-sweep, so cancel after a fixed
	// number of junction visits by wrapping the context deadline — the
	// simplest deterministic trigger is cancelling once the first
	// callback fires... but callbacks run at round boundaries. Instead,
	// cancel concurrently-safely before the sweep's junction check by
	// running one round first.
	calls := 0
	s.Opts.RoundCallback = func(p Progress) error {
		calls++
		cancel()
		return nil
	}
	res, err := s.RunCtx(ctx)
	var itr *Interrupted
	if !errors.As(err, &itr) {
		t.Fatalf("err = %v, want *Interrupted after cancel at round boundary", err)
	}
	if calls == 0 {
		t.Fatal("round callback never ran")
	}
	// The tree must be structurally whole: every node has 3 neighbours
	// (or 1 for tips), and a fresh likelihood evaluation works.
	if err := checkDegrees(e.T); err != nil {
		t.Fatal(err)
	}
	e.InvalidateAll()
	fresh, err := e.LogLikelihood()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fresh-res.LnL) > 1e-7*(1+math.Abs(fresh)) {
		t.Errorf("lnL at interrupt %v disagrees with fresh recompute %v", res.LnL, fresh)
	}
}

// canonFingerprint serialises a tree in canonical form so two
// value-identical trees compare equal regardless of how their
// adjacency lists happen to be ordered (WriteNewick starts at Edges[0]
// and follows Adj order, both of which are representation accidents).
func canonFingerprint(t *tree.Tree) string {
	tree.Canonicalize(t)
	anchor := t.Nodes[0]
	for i := 1; i < t.NumTips; i++ {
		if t.Nodes[i].Name < anchor.Name {
			anchor = t.Nodes[i]
		}
	}
	var b strings.Builder
	var walk func(n, from *tree.Node, via *tree.Edge)
	walk = func(n, from *tree.Node, via *tree.Edge) {
		if n.Index < t.NumTips {
			fmt.Fprintf(&b, "%s:%x", n.Name, math.Float64bits(via.Length))
			return
		}
		b.WriteByte('(')
		first := true
		for _, e := range n.Adj {
			o := e.Other(n)
			if o == from {
				continue
			}
			if !first {
				b.WriteByte(',')
			}
			first = false
			walk(o, n, e)
		}
		fmt.Fprintf(&b, "):%x", math.Float64bits(via.Length))
	}
	e0 := anchor.Adj[0]
	fmt.Fprintf(&b, "%s=", anchor.Name)
	walk(e0.Other(anchor), anchor, e0)
	return b.String()
}

func checkDegrees(t *tree.Tree) error {
	for _, n := range t.Nodes {
		want := 3
		if n.Index < t.NumTips {
			want = 1
		}
		deg := 0
		for _, e := range n.Adj {
			if e != nil {
				deg++
			}
		}
		if deg != want {
			return errors.New("node with wrong degree after interrupt")
		}
	}
	return nil
}

func TestResumeBitIdenticalAtRoundBoundary(t *testing.T) {
	// An uninterrupted run vs stop-at-round-k + resume: final tree and
	// likelihood must match bit for bit. This is the in-process half of
	// the kill/resume guarantee (cmd/oocraxml's soak is the on-disk
	// half).
	d, err := sim.NewDataset(sim.Config{Taxa: 16, Sites: 300, GammaAlpha: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}

	// Baseline: run to completion, remembering the round-1 position.
	base := startTree(t, d, 10)
	eBase := makeEngine(t, d, base.Clone())
	sBase := New(eBase, Options{SPRRadius: 5, MaxRounds: 3})
	var atRound1 *Progress
	var treeAtRound1 string
	sBase.Opts.RoundCallback = func(p Progress) error {
		if p.Round == 1 {
			pp := p
			atRound1 = &pp
			treeAtRound1 = tree.WriteNewick(eBase.T)
		}
		return nil
	}
	resBase, err := sBase.Run()
	if err != nil {
		t.Fatal(err)
	}
	if atRound1 == nil {
		t.Skip("search converged before round 1; nothing to resume")
	}

	// Resumed run: restart from the round-1 tree and position.
	rt, err := tree.ParseNewick(treeAtRound1)
	if err != nil {
		t.Fatal(err)
	}
	eRes := makeEngine(t, d, rt)
	sRes := New(eRes, Options{SPRRadius: 5, MaxRounds: 3, Resume: atRound1})
	resRes, err := sRes.Run()
	if err != nil {
		t.Fatal(err)
	}

	if math.Float64bits(resRes.LnL) != math.Float64bits(resBase.LnL) {
		t.Errorf("resumed lnL %.17g != baseline %.17g", resRes.LnL, resBase.LnL)
	}
	if got, want := canonFingerprint(eRes.T), canonFingerprint(eBase.T); got != want {
		t.Errorf("resumed tree differs from baseline:\n%s\n%s", got, want)
	}
	// Cumulative counters carry across the resume.
	if resRes.TestedMoves != resBase.TestedMoves || resRes.AcceptedMoves != resBase.AcceptedMoves {
		t.Errorf("counters diverged: resumed %d/%d, baseline %d/%d",
			resRes.TestedMoves, resRes.AcceptedMoves, resBase.TestedMoves, resBase.AcceptedMoves)
	}
	if resRes.Final.Round != resBase.Final.Round {
		t.Errorf("Final.Round: resumed %d, baseline %d", resRes.Final.Round, resBase.Final.Round)
	}
}

func TestResumeFromFinalConverges(t *testing.T) {
	// A search that converged (its last round improved nothing) is
	// finished: resuming its completion position runs no round, tests
	// no move and lands on the identical tree and likelihood — this is
	// what makes the soak's "resume after the last crash" step safe
	// even when the crash landed after search completion.
	d, err := sim.NewDataset(sim.Config{Taxa: 12, Sites: 250, GammaAlpha: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	e1 := makeEngine(t, d, startTree(t, d, 12))
	res1, err := New(e1, Options{SPRRadius: 5, MaxRounds: 10}).Run()
	if err != nil {
		t.Fatal(err)
	}
	fin := res1.Final
	if fin.Round <= fin.LastImproved {
		t.Fatalf("search stopped at round %d without converging (last improved %d); the test needs a converged run",
			fin.Round, fin.LastImproved)
	}
	rt, err := tree.ParseNewick(tree.WriteNewick(e1.T))
	if err != nil {
		t.Fatal(err)
	}
	e2 := makeEngine(t, d, rt)
	res2, err := New(e2, Options{SPRRadius: 5, MaxRounds: 10, Resume: &fin}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Rounds != 0 || res2.TestedMoves != res1.TestedMoves || res2.Final != fin {
		t.Errorf("resuming a finished search ran %d rounds, %d moves tested (the finished run: %d); Final %+v, want %+v",
			res2.Rounds, res2.TestedMoves, res1.TestedMoves, res2.Final, fin)
	}
	if math.Float64bits(res2.LnL) != math.Float64bits(res1.LnL) {
		t.Errorf("re-resumed lnL %.17g != original %.17g", res2.LnL, res1.LnL)
	}
	if canonFingerprint(e2.T) != canonFingerprint(e1.T) {
		t.Error("re-resumed tree differs from original")
	}
}
