package main

import (
	"fmt"
	"math"
	"math/rand"
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
	"oocphylo/internal/plf"
	"oocphylo/internal/sim"
	"oocphylo/internal/tree"
)

// The kill/resume soak: the on-disk half of the crash-consistency
// guarantee. It runs a real oocraxml binary as a subprocess, kills it
// inside checkpoint.Save via -crashpoint, resumes from whatever
// checkpoint the kill left, and requires the surviving chain to land on
// exactly the likelihood and tree of an uninterrupted baseline.

var (
	soakBinOnce sync.Once
	soakBinPath string
	soakBinErr  error
)

// TestMain removes the directory soakBinary built into, so a test
// process leaves no binary behind.
func TestMain(m *testing.M) {
	code := m.Run()
	if soakBinPath != "" {
		os.RemoveAll(filepath.Dir(soakBinPath))
	}
	os.Exit(code)
}

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

// soakDataset writes a simulated alignment of taxa × sites and its true
// tree to dir and returns the file paths plus a -L value sized so roughly a
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

// TestKillResumeSoak kills the run inside checkpoint.Save, the one
// durable write it makes: at every boundary of a process's first two
// saves, and at two seeded boundaries of its third or fourth. A run
// saves after each improving round and once at completion, and a
// resumed process only what is left, so a kill the rest of the run
// never reaches ends its chain instead: that process finishes cleanly,
// its result is checked against the baseline, and the kill is retried
// from a fresh start. Every chain's survivor must match the baseline
// bit for bit, and the chain directory never holds more than the
// checkpoint's one temp file.
func TestKillResumeSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess soak skipped in -short mode")
	}
	const seed = 77
	bin := soakBinary(t)
	dir := t.TempDir()
	phy, nwk, memLimit := soakDataset(t, dir, 32, 240)
	// The pool holds records, a quarter of the full width on this data:
	// at half the quota, after the pipeline's share, a few of them fit
	// in RAM and the run keeps paging.
	memLimit /= 2
	// A random start improves in each of the three rounds, so a fresh
	// run saves four times.
	start := filepath.Join(dir, "random.nwk")
	truth, err := os.ReadFile(nwk)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tree.ParseNewick(strings.TrimSpace(string(truth)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	if tr, err = tree.RandomTopology(tr.TipNames(), rng, 0.02, 0.2); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(start, []byte(tree.WriteNewick(tr)+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	baseCkpt := filepath.Join(dir, "base.ckpt")
	baseTree := filepath.Join(dir, "base.nwk")
	code, out := soakRun(t, bin, soakArgs(phy, start, memLimit,
		filepath.Join(dir, "base.bin"), baseCkpt, baseTree))
	if code != 0 || !strings.Contains(out, "Out-of-core:") {
		t.Fatalf("baseline exited %d, or ran in RAM:\n%s", code, out)
	}
	stBase, err := checkpoint.Load(baseCkpt)
	if err != nil {
		t.Fatal(err)
	}

	// The kills, in order: the seeded later ones first, so the cheap
	// first-save kills land on a nearly finished chain.
	type kill struct{ save, boundary int }
	var kills []kill
	for range 2 {
		kills = append(kills, kill{3 + rng.Intn(2), 1 + rng.Intn(int(checkpoint.DirSynced))})
	}
	for save := 1; save <= 2; save++ {
		for b := 1; b <= int(checkpoint.DirSynced); b++ {
			kills = append(kills, kill{save, b})
		}
	}

	chainDir := filepath.Join(dir, "chain")
	if err := os.Mkdir(chainDir, 0o755); err != nil {
		t.Fatal(err)
	}
	chainCkpt := filepath.Join(chainDir, "chain.ckpt")
	chainTree := filepath.Join(chainDir, "chain.nwk")
	chainBack := filepath.Join(chainDir, "chain.bin")
	// runChain runs one process of the chain, resuming if a checkpoint
	// is there, and reports whether it did.
	runChain := func(extra ...string) (code int, out string, resumed bool) {
		args := soakArgs(phy, start, memLimit, chainBack, chainCkpt, chainTree)
		if _, err := os.Stat(chainCkpt); err == nil {
			args, resumed = append(args, "-resume", chainCkpt), true
		}
		code, out = soakRun(t, bin, append(args, extra...))
		ents, err := os.ReadDir(chainDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			switch e.Name() {
			case "chain.ckpt", "chain.ckpt.tmp", "chain.bin", "chain.nwk":
			default:
				t.Errorf("chain directory holds a stray %s", e.Name())
			}
		}
		return code, out, resumed
	}
	// survivor checks a finished chain against the baseline: likelihood
	// via the completion checkpoints (exact float64 round-trip through
	// JSON), topology and branch lengths via canonical fingerprints.
	chains, longest, crashes := 0, 0, 0
	survivor := func() {
		st, err := checkpoint.Load(chainCkpt)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(st.LnL) != math.Float64bits(stBase.LnL) {
			t.Errorf("chain %d: after %d kills lnL %.17g != baseline %.17g", chains+1, crashes, st.LnL, stBase.LnL)
		}
		if got, want := treeFingerprint(t, chainTree), treeFingerprint(t, baseTree); got != want {
			t.Errorf("chain %d: after %d kills the result tree differs from baseline", chains+1, crashes)
		}
		t.Logf("chain %d: %d kills, survivor matches the baseline", chains+1, crashes)
		chains, longest, crashes = chains+1, max(longest, crashes), 0
		if err := os.Remove(chainCkpt); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	for len(kills) > 0 {
		k := kills[0]
		code, out, resumed := runChain("-crashpoint", fmt.Sprintf("%d:%d", k.save, k.boundary))
		switch {
		case code == checkpoint.CrashExitCode:
			t.Logf("killed at save %d, boundary %d", k.save, k.boundary)
			kills = kills[1:]
			crashes++
			total++
		case code == 0 && resumed:
			survivor()
		case code == 0:
			t.Fatalf("a fresh run finished before save %d:\n%s", k.save, out)
		default:
			t.Fatalf("kill at save %d, boundary %d: exited %d, want %d or 0:\n%s",
				k.save, k.boundary, code, checkpoint.CrashExitCode, out)
		}
	}
	if code, out, _ := runChain(); code != 0 {
		t.Fatalf("final resume exited %d:\n%s", code, out)
	}
	survivor()
	if longest < 5 {
		t.Errorf("the longest chain survived %d kills, want at least 5", longest)
	}
	t.Logf("soak: %d kills over %d chains, every survivor's lnL %.6f matches the baseline", total, chains, stBase.LnL)
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

// TestSIGTERMDuringStartTree: SIGTERM reaches start-tree construction.
// Over 3 000 taxa, stepwise addition and neighbor joining each take far
// longer than the test waits, so a run that ignored the signal until
// its tree was built would still be going 2 s later. The run never
// gets as far as printing its model.
func TestSIGTERMDuringStartTree(t *testing.T) {
	bin := soakBinary(t)
	phy, _, _ := soakDataset(t, t.TempDir(), 3000, 200)
	for _, kind := range []string{"parsimony", "nj"} {
		t.Run(kind, func(t *testing.T) {
			out := sigtermAfterOneSecond(t, exec.Command(bin, "-s", phy, "-start", kind, "-f", "z", "-k", "1", "-m", "JC", "-a", "0"))
			if strings.Contains(out, "Model:") {
				t.Errorf("run got past its start tree:\n%s", out)
			}
		})
	}
}

// sigtermAfterOneSecond starts cmd, sends it SIGTERM a second later and
// requires it to be interrupted, not failed: it must exit 0 within 2 s
// more and report the interrupt. It returns the run's output.
func sigtermAfterOneSecond(t *testing.T, cmd *exec.Cmd) string {
	t.Helper()
	var out strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	time.Sleep(time.Second)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("run exited with %v after SIGTERM, want 0:\n%s", err, out.String())
		}
	case <-time.After(2 * time.Second):
		cmd.Process.Kill()
		<-exited
		t.Fatalf("run still going 2 s after SIGTERM:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "Interrupted") {
		t.Errorf("run did not report the interrupt:\n%s", out.String())
	}
	return out.String()
}
