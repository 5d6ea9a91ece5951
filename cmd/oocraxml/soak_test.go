package main

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"oocphylo/internal/bio"
	"oocphylo/internal/checkpoint"
	"oocphylo/internal/ooc"
	"oocphylo/internal/plf"
	"oocphylo/internal/sim"
	"oocphylo/internal/tree"
)

// The kill/resume soak: the on-disk half of the crash-consistency
// guarantee. It runs a real oocraxml binary as a subprocess, kills it at
// deterministic vector-I/O counts via -crashpoint, resumes from the
// last checkpoint each time, and requires the surviving chain to land
// on exactly the likelihood and tree of an uninterrupted baseline.

var (
	soakBinOnce sync.Once
	soakBinPath string
	soakBinErr  error
)

// soakBinary builds the oocraxml binary once per test process.
func soakBinary(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH; skipping subprocess soak")
	}
	soakBinOnce.Do(func() {
		dir, err := os.MkdirTemp("", "oocraxml-soak")
		if err != nil {
			soakBinErr = err
			return
		}
		soakBinPath = filepath.Join(dir, "oocraxml")
		cmd := exec.Command("go", "build", "-o", soakBinPath, ".")
		if out, err := cmd.CombinedOutput(); err != nil {
			soakBinErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if soakBinErr != nil {
		t.Fatal(soakBinErr)
	}
	return soakBinPath
}

// soakDataset writes a 128-taxon simulated alignment and its true tree
// to dir and returns the file paths plus a -L value sized so roughly a
// quarter of the ancestral vectors fit in RAM.
func soakDataset(t *testing.T, dir string, taxa, sites int) (phy, nwk string, memLimit int64) {
	t.Helper()
	d, err := sim.NewDataset(sim.Config{Taxa: taxa, Sites: sites, GammaAlpha: 0.8, Seed: 20260805})
	if err != nil {
		t.Fatal(err)
	}
	phy = filepath.Join(dir, "data.phy")
	f, err := os.Create(phy)
	if err != nil {
		t.Fatal(err)
	}
	if err := bio.WritePhylip(f, d.Alignment); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	nwk = filepath.Join(dir, "start.nwk")
	if err := os.WriteFile(nwk, []byte(tree.WriteNewick(d.Tree)+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// The CLI will run HKY+Γ4 over the same patterns: vector length
	// depends only on states, categories and pattern count, so the
	// simulated model computes the same slot size the run will use.
	vecBytes := int64(plf.VectorLength(d.Model, d.Patterns.NumPatterns())) * 8
	n := int64(d.Tree.NumInner())
	memLimit = n * vecBytes / 4
	return phy, nwk, memLimit
}

// soakArgs are the flags every run in a soak shares; crash/resume
// chains must be flag-identical to their baseline or bit-identity is
// meaningless.
func soakArgs(phy, nwk string, memLimit int64, backing, ckpt, outTree string) []string {
	return []string{
		"-s", phy, "-t", nwk, "-m", "HKY", "-a", "0.8",
		"-rounds", "3", "-radius", "2",
		"-L", fmt.Sprint(memLimit), "-strategy", "lru",
		"-backing", backing, "-checkpoint", ckpt, "-w", outTree,
	}
}

// exitCode runs the binary and returns its exit code and output.
func soakRun(t *testing.T, bin string, args []string) (int, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err == nil {
		return 0, string(out)
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode(), string(out)
	}
	t.Fatalf("running %v: %v\n%s", args, err, out)
	return -1, ""
}

// treeFingerprint parses a Newick file and serialises the tree in
// canonical form (anchored at the smallest tip name, subtrees in
// canonical order, branch lengths as exact bit patterns), so two
// value-identical trees compare equal regardless of the adjacency
// layout their runs happened to end with.
func treeFingerprint(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tree.ParseNewick(strings.TrimSpace(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	tree.Canonicalize(tr)
	anchor := tr.Nodes[0]
	for i := 1; i < tr.NumTips; i++ {
		if tr.Nodes[i].Name < anchor.Name {
			anchor = tr.Nodes[i]
		}
	}
	var b strings.Builder
	var walk func(n, from *tree.Node, via *tree.Edge)
	walk = func(n, from *tree.Node, via *tree.Edge) {
		if n.Index < tr.NumTips {
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

func TestKillResumeSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess soak skipped in -short mode")
	}
	bin := soakBinary(t)
	dir := t.TempDir()
	phy, nwk, memLimit := soakDataset(t, dir, 128, 240)
	// The pool holds records, a quarter of the full width on this data:
	// at half the quota, after the pipeline's share, roughly a third of
	// them fit in RAM and the run keeps paging.
	memLimit /= 2

	// Uninterrupted baseline.
	baseCkpt := filepath.Join(dir, "base.ckpt")
	baseTree := filepath.Join(dir, "base.nwk")
	code, out := soakRun(t, bin, soakArgs(phy, nwk, memLimit,
		filepath.Join(dir, "base.bin"), baseCkpt, baseTree))
	if code != 0 {
		t.Fatalf("baseline exited %d:\n%s", code, out)
	}

	// Crash/resume chain: the same run, killed at a deterministic,
	// per-cycle-doubling vector-I/O count, resumed from the latest
	// checkpoint after every kill.
	const seed, minCrashes = 77, 5
	chainCkpt := filepath.Join(dir, "chain.ckpt")
	chainTree := filepath.Join(dir, "chain.nwk")
	chainBack := filepath.Join(dir, "chain.bin")
	crashes := 0
	for cycle := 0; crashes < minCrashes; cycle++ {
		if cycle > minCrashes+3 {
			t.Fatalf("only %d crashes after %d cycles: crashpoints outgrew the run's I/O volume", crashes, cycle)
		}
		args := soakArgs(phy, nwk, memLimit, chainBack, chainCkpt, chainTree)
		args = append(args, "-crashpoint", fmt.Sprint(ooc.CrashPoint(seed, cycle, 400, 300)))
		if _, err := os.Stat(chainCkpt); err == nil {
			args = append(args, "-resume", chainCkpt)
		}
		code, out := soakRun(t, bin, args)
		switch code {
		case ooc.CrashExitCode:
			crashes++
		case 0:
			t.Fatalf("cycle %d finished before its crashpoint fired:\n%s", cycle, out)
		default:
			t.Fatalf("cycle %d exited %d, want %d or 0:\n%s", cycle, code, ooc.CrashExitCode, out)
		}
	}

	// Final clean run: resume with no crashpoint, must complete.
	args := soakArgs(phy, nwk, memLimit, chainBack, chainCkpt, chainTree)
	if _, err := os.Stat(chainCkpt); err == nil {
		args = append(args, "-resume", chainCkpt)
	}
	code, out = soakRun(t, bin, args)
	if code != 0 {
		t.Fatalf("final resume exited %d:\n%s", code, out)
	}

	// The survivor must match the baseline bit for bit: likelihood via
	// the completion checkpoints (exact float64 round-trip through
	// JSON), topology and branch lengths via canonical fingerprints.
	stBase, err := checkpoint.Load(baseCkpt)
	if err != nil {
		t.Fatal(err)
	}
	stChain, err := checkpoint.Load(chainCkpt)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(stChain.LnL) != math.Float64bits(stBase.LnL) {
		t.Errorf("after %d crash/resume cycles lnL %.17g != baseline %.17g", crashes, stChain.LnL, stBase.LnL)
	}
	if got, want := treeFingerprint(t, chainTree), treeFingerprint(t, baseTree); got != want {
		t.Errorf("after %d crash/resume cycles the result tree differs from baseline", crashes)
	}
	t.Logf("soak: %d seeded crashes, final lnL %.6f matches baseline", crashes, stChain.LnL)
}

func TestSIGTERMWritesResumableCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess soak skipped in -short mode")
	}
	bin := soakBinary(t)
	dir := t.TempDir()
	phy, nwk, memLimit := soakDataset(t, dir, 128, 240)

	ckpt := filepath.Join(dir, "term.ckpt")
	args := soakArgs(phy, nwk, memLimit, filepath.Join(dir, "term.bin"), ckpt, filepath.Join(dir, "term.nwk"))
	// Plenty of rounds so the signal lands mid-search.
	args[7] = "50"
	cmd := exec.Command(bin, args...)
	outFile, err := os.Create(filepath.Join(dir, "term.out"))
	if err != nil {
		t.Fatal(err)
	}
	defer outFile.Close()
	cmd.Stdout, cmd.Stderr = outFile, outFile
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Wait for the first round checkpoint so the search is provably in
	// flight, then deliver SIGTERM.
	deadline := time.Now().Add(3 * time.Minute)
	for {
		if _, err := os.Stat(ckpt); err == nil {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatal("no checkpoint appeared within the deadline")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	err = cmd.Wait()
	output, _ := os.ReadFile(outFile.Name())
	if err != nil {
		t.Fatalf("SIGTERM run exited non-zero: %v\n%s", err, output)
	}

	// The checkpoint left behind must load, restore, and resume to a
	// clean finish.
	st, err := checkpoint.Load(ckpt)
	if err != nil {
		t.Fatalf("checkpoint after SIGTERM unreadable: %v", err)
	}
	if _, _, err := st.Restore(); err != nil {
		t.Fatalf("checkpoint after SIGTERM does not restore: %v", err)
	}
	args = soakArgs(phy, nwk, memLimit, filepath.Join(dir, "term.bin"), ckpt, filepath.Join(dir, "term.nwk"))
	args = append(args, "-resume", ckpt)
	code, out := soakRun(t, bin, args)
	if code != 0 {
		t.Fatalf("resume after SIGTERM exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "Resumed from") {
		t.Errorf("resume run did not report resuming:\n%s", out)
	}
	if !strings.Contains(string(output), "interrupted") && !strings.Contains(string(output), "Interrupted") {
		t.Logf("note: SIGTERM run output did not mention interruption (may have finished first):\n%s", output)
	}
}
