package analysis

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"oocphylo/internal/bio"
	"oocphylo/internal/checkpoint"
	"oocphylo/internal/iosim"
	"oocphylo/internal/ooc"
	"oocphylo/internal/ooc/remote"
	"oocphylo/internal/sim"
	"oocphylo/internal/tree"
)

// testSpec simulates a small DNA dataset and returns a spec over it
// (inline alignment, the simulation's tree) with the defaults filled.
func testSpec(t *testing.T, taxa, sites int, seed int64) Spec {
	t.Helper()
	d, err := sim.NewDataset(sim.Config{Taxa: taxa, Sites: sites, GammaAlpha: 1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := bio.WritePhylip(&buf, d.Alignment); err != nil {
		t.Fatal(err)
	}
	spec := Spec{Alignment: buf.String(), Newick: tree.WriteNewick(d.Tree), Alpha: 1}
	spec.Fill()
	return spec
}

// openFilesUnder lists this process's open descriptors that point below
// dir (Linux /proc; empty elsewhere).
func openFilesUnder(dir string) []string {
	if real, err := filepath.EvalSymlinks(dir); err == nil {
		dir = real
	}
	var open []string
	ents, _ := os.ReadDir("/proc/self/fd")
	for _, e := range ents {
		if link, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); err == nil && strings.HasPrefix(link, dir) {
			open = append(open, link)
		}
	}
	return open
}

// TestOpen is the seam's table: where the vectors live × whether the
// run is fresh or resumed from a Snapshot (a caller-built Base medium —
// the experiments' MemStore and SimStore, opened async here — is fresh
// only: it does not outlive its process). It pins the provider kind,
// the slot count the grant buys (store overhead charged), the watchdog,
// that a Snapshot's manifest validates the store on reopen and resumes
// bit-identically, and that Close releases every file and removes
// exactly the temps the run created.
func TestOpen(t *testing.T) {
	for _, medium := range []string{"ram", "local", "remote", "mem", "sim"} {
		for _, resumed := range []bool{false, true} {
			medium, resumed := medium, resumed
			base := medium == "mem" || medium == "sim"
			if base && resumed {
				continue
			}
			t.Run(medium+map[bool]string{false: "/fresh", true: "/resumed"}[resumed], func(t *testing.T) {
				dir := t.TempDir()
				tmp := filepath.Join(dir, "tmp")
				if err := os.Mkdir(tmp, 0o755); err != nil {
					t.Fatal(err)
				}
				t.Setenv("TMPDIR", tmp)

				spec := testSpec(t, 12, 300, 7)
				var simClock iosim.Clock
				opts := Options{Retries: 3, MemBudget: 1 << 40, Stack: ooc.StackSpec{Verify: true}}
				if medium == "remote" {
					srv, err := remote.NewServer(remote.ServerConfig{})
					if err != nil {
						t.Fatal(err)
					}
					defer srv.Close()
					opts.Stack.URL = srv.ObjectURL("obj")
				}
				_, pats, err := Load(spec)
				if err != nil {
					t.Fatal(err)
				}
				in, err := Build(spec, pats)
				if err != nil {
					t.Fatal(err)
				}
				if medium != "ram" {
					full, err := Size(spec, in)
					if err != nil {
						t.Fatal(err)
					}
					spec.MemLimit = 5*full.VecBytes + full.VecBytes/2
					if base {
						opts.Stack.Base = ooc.NewMemStore(full.NumVectors, full.VecLen)
						opts.Async = true
					}
					if medium == "sim" {
						opts.Stack.Base = ooc.NewSimStore(opts.Stack.Base, iosim.HDD(), &simClock)
					}
				}
				sz, err := Size(spec, in)
				if err != nil {
					t.Fatal(err)
				}
				if sz.OutOfCore != (medium != "ram") || sz.Quota > sz.Need {
					t.Fatalf("sizing = %+v", sz)
				}

				var man *ooc.Manifest
				var wantBits uint64
				ckpt := filepath.Join(dir, "run.ckpt")
				if resumed {
					// The interrupted run: explicit paths, one evaluation,
					// a snapshot, a clean close.
					opts.Stack.Path = filepath.Join(dir, "v.bin")
					if medium == "remote" {
						opts.Stack.CacheDir = filepath.Join(dir, "cache")
					}
					prev, err := Open(spec, opts, in, sz, sz.Quota, nil)
					if err != nil {
						t.Fatal(err)
					}
					lnl, err := prev.Engine.LogLikelihood()
					if err != nil {
						t.Fatal(err)
					}
					wantBits = math.Float64bits(lnl)
					if err := prev.Snapshot(ckpt, checkpoint.Capture(in.Tree, in.Model, lnl, 1)); err != nil {
						t.Fatal(err)
					}
					if err := prev.Close(); err != nil {
						t.Fatal(err)
					}
					ck, err := checkpoint.Load(ckpt)
					if err != nil {
						t.Fatal(err)
					}
					rt, rm, err := ck.Restore()
					if err != nil {
						t.Fatal(err)
					}
					in = &Inputs{Patterns: pats, Model: rm, Tree: rt}
					man, opts.Stack.Adopt = ck.Store, true
					if (man != nil) != sz.OutOfCore {
						t.Fatalf("snapshot manifest = %v for out-of-core = %v", man, sz.OutOfCore)
					}
				}

				r, err := Open(spec, opts, in, sz, sz.Quota, man)
				if err != nil {
					t.Fatal(err)
				}
				hasMgr, hasTier, hasWd := r.Manager != nil, r.Stack.Tier != nil, r.Watchdog != nil
				if hasMgr != sz.OutOfCore || hasWd != sz.OutOfCore || hasTier != (medium == "remote") {
					t.Fatalf("manager %t, tier %t, watchdog %t", hasMgr, hasTier, hasWd)
				}
				if (r.Stack.Store != nil) != sz.OutOfCore {
					t.Errorf("store stack open = %t, want %t", r.Stack.Store != nil, sz.OutOfCore)
				}
				if hasMgr {
					// Every store keeps only a few bytes per vector (the
					// checksum table; a tier's placement maps — it owns no
					// vector-sized buffer), so under any medium the quota
					// buys its five vectors.
					if ov := r.Manager.MemOverheadBytes(); ov >= sz.VecBytes/2 || r.Manager.Slots() != 5 {
						t.Errorf("%d slots with %d B store overhead, want 5", r.Manager.Slots(), ov)
					}
				}
				if resumed && sz.OutOfCore {
					notes := strings.Join(r.Stack.Notes, "\n")
					if !r.Stack.Adopted || !strings.Contains(notes, "validated against checkpoint manifest") {
						t.Errorf("snapshot not adopted on reopen (adopted=%v):\n%s", r.Stack.Adopted, notes)
					}
				}
				lnl, err := r.Engine.LogLikelihood()
				if err != nil {
					t.Fatal(err)
				}
				if resumed && math.Float64bits(lnl) != wantBits {
					t.Errorf("resumed lnL %016x, snapshot run %016x", math.Float64bits(lnl), wantBits)
				}
				if base {
					// Async implies prefetch, and Base is the medium the
					// vectors actually went to.
					if pf := r.Manager.PrefetchStats(); !r.Manager.PipelineStats().Enabled || pf.Issued == 0 {
						t.Errorf("async run staged nothing: %+v", pf)
					}
					if w := r.Manager.Stats().Writes; w == 0 || (medium == "sim") != (simClock.Elapsed() > 0) {
						t.Errorf("%d write-backs, simulated device time %v", w, simClock.Elapsed())
					}
				}
				if err := r.Close(); err != nil {
					t.Fatal(err)
				}
				if open := openFilesUnder(dir); len(open) != 0 {
					t.Errorf("Close left files open: %v", open)
				}
				if left, _ := os.ReadDir(tmp); len(left) != 0 {
					t.Errorf("Close left %d temp entries behind, first %s", len(left), left[0].Name())
				}
				if resumed && sz.OutOfCore {
					kept := opts.Stack.Path
					if medium == "remote" {
						kept = opts.Stack.CacheDir
					}
					if _, err := os.Stat(kept); err != nil {
						t.Errorf("Close removed the caller's %s: %v", kept, err)
					}
				}
			})
		}
	}
}

// TestBuildSizeOpenErrors pins which step rejects which mistake.
func TestBuildSizeOpenErrors(t *testing.T) {
	base := testSpec(t, 8, 120, 3)
	other := testSpec(t, 9, 120, 3)
	protein := Spec{Alignment: " 4 6\np1 ARNDCQ\np2 ARNDCE\np3 ARNECE\np4 GRNECE\n", DataType: "aa", Model: "PAML"}
	protein.Fill()
	cases := []struct {
		name string
		spec func() Spec
		step string // the step that must fail
	}{
		{"unknown model", func() Spec { s := base; s.Model = "BOGUS"; return s }, "build"},
		{"unknown start tree", func() Spec { s := base; s.Newick, s.StartTree = "", "bogus"; return s }, "build"},
		{"PAML without a matrix", func() Spec { return protein }, "build"},
		{"tip-count mismatch", func() Spec { s := base; s.Newick = other.Newick; return s }, "size"},
		{"quota below three vectors", func() Spec { s := base; s.MemLimit = 100; return s }, "size"},
		{"unknown strategy when the data fits in RAM", func() Spec { s := base; s.Strategy = "bogus"; return s }, "open"},
		{"unknown kernel", func() Spec { s := base; s.Kernel = "bogus"; return s }, "open"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec := c.spec()
			_, pats, err := Load(spec)
			if err != nil {
				t.Fatal(err)
			}
			in, err := Build(spec, pats)
			if c.step == "build" {
				if err == nil {
					t.Fatal("Build accepted it")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			sz, err := Size(spec, in)
			if c.step == "size" {
				if err == nil {
					t.Fatal("Size accepted it")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if r, err := Open(spec, Options{}, in, sz, sz.Quota, nil); err == nil {
				r.Close()
				t.Fatal("Open accepted it")
			}
		})
	}
}

// TestSpecWire pins what travels: exactly the session document's JSON
// names, and never the matrix path.
func TestSpecWire(t *testing.T) {
	want := "name alignment path format data_type model - kappa alpha cats pinv uniform_freqs " +
		"newick tree_path start_tree seed mem_limit strategy workers kernel precision"
	var got []string
	typ := reflect.TypeOf(Spec{})
	for i := 0; i < typ.NumField(); i++ {
		name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		got = append(got, name)
	}
	if strings.Join(got, " ") != want {
		t.Errorf("wire names = %v\nwant         %s", got, want)
	}
}
