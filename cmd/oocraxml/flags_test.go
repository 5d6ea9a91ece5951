package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"oocphylo/internal/analysis"
	"oocphylo/internal/service"
	"oocphylo/internal/tree"
)

// TestFlagSurfaceUnchanged diffs the accepted flag names and effective
// defaults of run, serve and client create against testdata/flags.golden,
// captured from the commit before the flags moved into shared binders
// (a flag deleted since is deleted from the golden in the same diff).
// The one difference: client create now shows -kernel as auto, which is
// what the empty string it used to show meant.
func TestFlagSurfaceUnchanged(t *testing.T) {
	golden, err := os.ReadFile("testdata/flags.golden")
	if err != nil {
		t.Fatal(err)
	}
	before, create, ok := strings.Cut(string(golden), "## client create\n")
	if !ok {
		t.Fatal("golden has no client create section")
	}
	create = strings.Replace(create, "kernel=\n", "kernel=auto\n", 1)
	want := before + "## client create\n" + create

	runFS, _, _, _ := runFlags()
	serveFS, _, _, _ := serveFlags()
	createFS, _, _ := clientFlags("create")
	bindSpec(createFS)
	var got strings.Builder
	for _, sub := range []struct {
		name string
		fs   *flag.FlagSet
	}{{"run", runFS}, {"serve", serveFS}, {"client create", createFS}} {
		fmt.Fprintf(&got, "## %s\n", sub.name)
		sub.fs.VisitAll(func(f *flag.Flag) { fmt.Fprintf(&got, "%s=%s\n", f.Name, f.DefValue) })
	}
	if got.String() != want {
		t.Errorf("flag surface changed\n--- got\n%s--- want\n%s", got.String(), want)
	}
}

// TestOneSpecThreeDoors is the differential row of the analysis seam:
// one set of flags, parsed once into a spec, evaluates to the same
// likelihood bits through the one-shot run, through a daemon session
// created from that spec, and through the analysis package called
// directly.
func TestOneSpecThreeDoors(t *testing.T) {
	phy, nwk := writeTestData(t)
	// The session normalises its tree through a Newick round trip; start
	// from the fixed point so every door parses the same text.
	raw, err := os.ReadFile(nwk)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := tree.ParseNewick(string(raw))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(nwk, []byte(tree.WriteNewick(parsed)+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-s", phy, "-t", nwk, "-m", "HKY", "-kappa", "3", "-a", "0.7", "-L", "5000", "-strategy", "lfu"}

	oneShot, err := capture(t, append(args, "-f", "z", "-k", "1", "-lnl-bits")...)
	if err != nil {
		t.Fatalf("one-shot: %v\n%s", err, oneShot)
	}
	m := lnlBitsRe.FindStringSubmatch(oneShot)
	if m == nil || !strings.Contains(oneShot, "Out-of-core:") {
		t.Fatalf("one-shot did not run out of core with lnl bits:\n%s", oneShot)
	}
	want := m[1]

	fs, _, sf, _ := runFlags()
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	spec := sf.resolve()

	_, pats, err := analysis.Load(spec)
	if err != nil {
		t.Fatal(err)
	}
	in, err := analysis.Build(spec, pats)
	if err != nil {
		t.Fatal(err)
	}
	sz, err := analysis.Size(spec, in)
	if err != nil {
		t.Fatal(err)
	}
	r, err := analysis.Open(spec, analysis.Options{}, in, sz, sz.Quota)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	lnl, err := r.Engine.LogLikelihoodAt(in.Tree.Edges[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := service.FormatLnLBits(lnl); r.Manager == nil || got != want {
		t.Errorf("builder: out-of-core %t, lnl bits %s, one-shot %s", r.Manager != nil, got, want)
	}

	srv, err := service.NewServer(service.ServerConfig{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	spec.Name = "door"
	ses, err := srv.CreateSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ses.Evaluate(service.EvalSpec{Edge: 0})
	if err != nil {
		t.Fatal(err)
	}
	if rep.LnLBits != want {
		t.Errorf("session: lnl bits %s, one-shot %s", rep.LnLBits, want)
	}
}
