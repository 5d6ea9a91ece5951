package analysis

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"oocphylo/internal/bio"
	"oocphylo/internal/checkpoint"
	"oocphylo/internal/iosim"
	"oocphylo/internal/ooc"
	"oocphylo/internal/ooc/remote"
	"oocphylo/internal/search"
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
// run is fresh or resumed from a checkpoint over the files an earlier
// run left (a caller-built Base medium — the experiments' MemStore and
// SimStore, opened Sync here — is fresh only: it does not outlive its
// process). It pins the provider kind, the manager (pipelined by
// default, not under Sync), a verified store stack, the slot count the grant buys (store
// overhead and spare buffers charged), that a resume opens fresh stores
// over the leftovers and lands bit-identical, that only the
// vector/cache file and the checkpoint ever exist, and
// that Close releases every file and removes exactly the temps the run
// created.
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
				var opts Options
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
				// The default is the product's pipelined manager; a Base
				// medium is opened Sync, as the paper-faithful arms open it.
				opts.Sync = base
				var spares int64
				if medium != "ram" {
					full, err := Size(spec, in)
					if err != nil {
						t.Fatal(err)
					}
					if !opts.Sync {
						spares = ooc.PipelineBytes(full.VecLen)
					}
					spec.MemLimit = 5*full.VecBytes + full.VecBytes/2 + spares
					if base {
						opts.Stack.Base = ooc.NewMemStore(full.NumVectors, full.VecLen)
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

				var wantBits uint64
				ckpt := filepath.Join(dir, "run.ckpt")
				if resumed {
					// The interrupted run: explicit paths, one evaluation,
					// a checkpoint, a clean close.
					opts.Stack.Path = filepath.Join(dir, "v.bin")
					if medium == "remote" {
						opts.Stack.CacheDir = filepath.Join(dir, "cache")
					}
					prev, err := Open(spec, opts, in, sz, sz.Quota)
					if err != nil {
						t.Fatal(err)
					}
					lnl, err := prev.Engine.LogLikelihood()
					if err != nil {
						t.Fatal(err)
					}
					wantBits = math.Float64bits(lnl)
					if err := checkpoint.Save(ckpt, checkpoint.Capture(in.Tree, in.Model, lnl, 1)); err != nil {
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
				}

				r, err := Open(spec, opts, in, sz, sz.Quota)
				if err != nil {
					t.Fatal(err)
				}
				hasMgr, hasTier := r.Manager != nil, r.Stack.Tier != nil
				if hasMgr != sz.OutOfCore || hasTier != (medium == "remote") {
					t.Fatalf("manager %t, tier %t", hasMgr, hasTier)
				}
				if (r.Stack.Store != nil) != sz.OutOfCore || (r.Stack.Checksum != nil) != sz.OutOfCore {
					t.Errorf("store stack open = %t, verified = %t, want %t", r.Stack.Store != nil, r.Stack.Checksum != nil, sz.OutOfCore)
				}
				if hasMgr {
					// A store keeps at most a few bytes per vector (a
					// tier's placement maps — it owns no vector-sized
					// buffer), so under any medium the quota
					// buys its five vectors once the pipeline's spare
					// buffers are paid for.
					if ov := r.Manager.MemOverheadBytes() - spares; ov < 0 || ov >= sz.VecBytes/2 || r.Manager.Slots() != 5 {
						t.Errorf("%d slots with %d B store overhead, want 5", r.Manager.Slots(), ov)
					}
				}
				lnl, err := r.Engine.LogLikelihood()
				if err != nil {
					t.Fatal(err)
				}
				if resumed && math.Float64bits(lnl) != wantBits {
					t.Errorf("resumed lnL %016x, checkpointed run %016x", math.Float64bits(lnl), wantBits)
				}
				if hasMgr {
					// Pipelined means one-step prefetch; Sync stages nothing.
					pf, on := r.Manager.PrefetchStats(), r.Manager.PipelineStats().Enabled
					if on == opts.Sync || (pf.Issued > 0) == opts.Sync {
						t.Errorf("sync %t: pipeline enabled %t, prefetch %+v", opts.Sync, on, pf)
					}
				}
				if base {
					// Base is the medium the vectors actually went to.
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
				if resumed {
					// The caller's paths survive Close, and nothing else was
					// ever created next to them.
					var files []string
					filepath.WalkDir(dir, func(path string, d os.DirEntry, _ error) error {
						if !d.IsDir() {
							files = append(files, strings.TrimPrefix(path, dir+"/"))
						}
						return nil
					})
					want := map[string][]string{
						"ram":    {"run.ckpt"},
						"local":  {"run.ckpt", "v.bin"},
						"remote": {"cache/cache.vec", "run.ckpt"},
					}[medium]
					if !reflect.DeepEqual(files, want) {
						t.Errorf("files on disk = %v, want exactly %v", files, want)
					}
				}
			})
		}
	}
}

// guardStore is the medium of TestRunReadsOnlyWhatItWrote: a MemStore
// pre-filled with NaN, as if an earlier process had left garbage in
// every vector, that knows which vectors THIS run has written through
// it. A read of any other vector is foreign: counted, and in strict
// mode refused. It can also pose as a tier whose remote is down: then
// it serves only the vectors written since it went down, as a tier's
// cache would, and refuses every other read as circuit-open.
type guardStore struct {
	*ooc.MemStore
	strict bool

	mu      sync.Mutex // the async pipeline's workers call in concurrently
	written []bool
	foreign int
	down    bool
	local   []bool // written while down
}

func newGuardStore(n, vecLen int, strict bool) *guardStore {
	g := &guardStore{MemStore: ooc.NewMemStore(n, vecLen), strict: strict, written: make([]bool, n), local: make([]bool, n)}
	garbage := make([]float64, vecLen)
	for i := range garbage {
		garbage[i] = math.NaN()
	}
	for vi := 0; vi < n; vi++ {
		g.MemStore.WriteVector(vi, garbage)
	}
	return g
}

func (g *guardStore) ReadVector(vi int, dst []float64) error {
	g.mu.Lock()
	mine := g.written[vi]
	if !mine {
		g.foreign++
	}
	refused := g.down && !g.local[vi]
	g.mu.Unlock()
	if !mine && g.strict {
		return fmt.Errorf("test: read of vector %d, which this run never wrote", vi)
	}
	if refused {
		return fmt.Errorf("test: vector %d: %w", vi, ooc.ErrCircuitOpen)
	}
	return g.MemStore.ReadVector(vi, dst)
}

func (g *guardStore) WriteVector(vi int, src []float64) error {
	g.mu.Lock()
	g.written[vi] = true
	g.local[vi] = g.down
	g.mu.Unlock()
	return g.MemStore.WriteVector(vi, src)
}

// setDown takes the pretend remote away or brings it back.
func (g *guardStore) setDown(down bool) {
	g.mu.Lock()
	g.down = down
	clear(g.local)
	g.mu.Unlock()
}

// TestRunReadsOnlyWhatItWrote pins the invariant the store stack's one
// rule rests on: an engine never reads a vector before it has written
// it, so nothing a store held when it was opened can reach a
// likelihood. Full traversals, partial traversals to every edge,
// passes through a remote outage and an SPR search run over a guardStore — sync
// and async+prefetch, clean and under injected faults with recovery —
// with zero foreign reads and every likelihood bit-identical to RAM.
// With read skipping off the write-intent fault-ins do read the NaN
// garbage; it is overwritten unseen, so that arm asserts bit-identity
// alone.
func TestRunReadsOnlyWhatItWrote(t *testing.T) {
	spec := testSpec(t, 20, 240, 5)
	_, pats, err := Load(spec)
	if err != nil {
		t.Fatal(err)
	}
	// drive returns the bit pattern of every likelihood it computes. Each
	// arm builds its own inputs: the search rearranges the tree.
	drive := func(t *testing.T, memFraction float64, opts Options, guard *guardStore) (bits []uint64, r *Run) {
		t.Helper()
		in, err := Build(spec, pats)
		if err != nil {
			t.Fatal(err)
		}
		spec := spec
		sz, err := Size(spec, in)
		if err != nil {
			t.Fatal(err)
		}
		if guard != nil {
			spec.MemLimit = int64(memFraction * float64(sz.Need))
			if sz, err = Size(spec, in); err != nil {
				t.Fatal(err)
			}
			opts.Stack.Base = guard
		}
		if r, err = Open(spec, opts, in, sz, sz.Quota); err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		e := r.Engine
		note := func(lnl float64, err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
			bits = append(bits, math.Float64bits(lnl))
		}
		for i := 0; i < 2; i++ {
			if err := e.FullTraversal(e.T.Edges[0]); err != nil {
				t.Fatal(err)
			}
			note(e.LogLikelihoodAt(e.T.Edges[0]))
		}
		for _, edge := range e.T.Edges {
			note(e.LogLikelihoodAt(edge))
		}
		recovered := e.Stats.Recoveries
		if guard != nil {
			// The remote goes away: every read of a vector not written
			// since fails, and the engine recomputes it instead.
			guard.setDown(true)
		}
		for i := len(e.T.Edges) - 1; i >= 0; i -= 3 {
			note(e.LogLikelihoodAt(e.T.Edges[i]))
		}
		if guard != nil {
			guard.setDown(false)
			if e.Stats.Recoveries == recovered {
				t.Error("the outage refused no read the engine had to recover")
			}
		}
		sr, err := search.New(e, search.Options{SPRRadius: 3, MaxRounds: 1}).Run()
		note(sr.LnL, err)
		return bits, r
	}

	want, ram := drive(t, 0, Options{}, nil)
	full := ram.Sizing
	faults := &ooc.FaultConfig{
		Seed:     17,
		PReadErr: 0.05, MaxReadErrs: 6,
		PTornWrite: 0.05, MaxTornWrites: 4,
		PBitFlip: 0.25, MaxBitFlips: 4,
	}
	for _, arm := range []struct {
		name   string
		opts   Options
		strict bool
	}{
		{"sync", Options{Sync: true}, true},
		{"async+prefetch", Options{}, true},
		{"sync+faults", Options{Sync: true, Stack: ooc.StackSpec{Fault: faults}}, true},
		{"async+prefetch+faults", Options{Stack: ooc.StackSpec{Fault: faults}}, true},
		{"sync, no read skipping", Options{Sync: true, NoReadSkipping: true}, false},
		{"async+prefetch, no read skipping", Options{NoReadSkipping: true}, false},
	} {
		t.Run(arm.name, func(t *testing.T) {
			guard := newGuardStore(full.NumVectors, full.VecLen, arm.strict)
			got, r := drive(t, 0.25, arm.opts, guard)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("likelihoods differ from the in-RAM run:\n got %x\nwant %x", got, want)
			}
			if st := r.Manager.Stats(); st.Reads == 0 || st.Writes == 0 {
				t.Fatalf("the run never went to the store: %+v", st)
			}
			if arm.strict && guard.foreign != 0 {
				t.Errorf("%d reads of vectors the run had not written", guard.foreign)
			}
			if !arm.strict && guard.foreign == 0 {
				t.Error("read skipping is off, yet no never-written vector was read: the arm checks nothing")
			}
			if arm.opts.Stack.Fault != nil {
				if r.Stack.Fault.Stats().Total() == 0 || r.Engine.Stats.Recoveries == 0 {
					t.Errorf("fault arm: %+v injected, %d recoveries", r.Stack.Fault.Stats(), r.Engine.Stats.Recoveries)
				}
			}
		})
	}
}

// TestOpenChargesPipelineToQuota: -L holds for the whole manager. A
// pipelined run opened above the MinSlots floor keeps its slot pool,
// its spare write buffers and its store's heap (none for a local file,
// the cache tier's maps over a remote) inside the quota, buys every
// slot that fits, and reports the same charge to Resize.
func TestOpenChargesPipelineToQuota(t *testing.T) {
	spec := testSpec(t, 24, 300, 11)
	_, pats, err := Load(spec)
	if err != nil {
		t.Fatal(err)
	}
	in, err := Build(spec, pats)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Size(spec, in)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := remote.NewServer(remote.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, medium := range []string{"local", "remote"} {
		spec.MemLimit = full.Need / 2
		sz, err := Size(spec, in)
		if err != nil {
			t.Fatal(err)
		}
		var opts Options
		if medium == "remote" {
			opts.Stack.URL = srv.ObjectURL("obj")
		}
		r, err := Open(spec, opts, in, sz, sz.Quota)
		if err != nil {
			t.Fatal(err)
		}
		m := r.Manager
		overhead := ooc.PipelineBytes(sz.VecLen) + ooc.StoreMemOverhead(r.Stack.Store)
		used := int64(m.Slots())*sz.VecBytes + overhead
		switch {
		case !m.PipelineStats().Enabled || m.Slots() <= ooc.MinSlots:
			t.Errorf("%s: want a pipelined run above the floor, got %d slots", medium, m.Slots())
		case used > sz.Quota:
			t.Errorf("%s: %d slots of %d B + %d B overhead = %d B > quota %d B",
				medium, m.Slots(), sz.VecBytes, overhead, used, sz.Quota)
		case used+sz.VecBytes <= sz.Quota:
			t.Errorf("%s: %d B of the quota left unused, a whole vector", medium, sz.Quota-used)
		case m.MemOverheadBytes() != overhead:
			t.Errorf("%s: manager reports %d B overhead, Open charged %d B", medium, m.MemOverheadBytes(), overhead)
		}
		if changed, err := r.Resize(sz.Quota); changed || err != nil {
			t.Errorf("%s: resizing to the grant Open used moved the pool (%v)", medium, err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenHoldsRecordsInQuota: on an auto-kernel run the pool holds
// records, so more vectors stay resident than it has slots, and after
// every manager call it holds no more than Slots × VecBytes.
func TestOpenHoldsRecordsInQuota(t *testing.T) {
	spec := testSpec(t, 24, 300, 11)
	_, pats, err := Load(spec)
	if err != nil {
		t.Fatal(err)
	}
	in, err := Build(spec, pats)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Size(spec, in)
	if err != nil {
		t.Fatal(err)
	}
	spec.MemLimit = full.Need / 3
	sz, err := Size(spec, in)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(spec, Options{}, in, sz, sz.Quota)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	m := r.Manager
	for i := 0; i < len(r.Engine.T.Edges); i += 3 {
		if _, err := r.Engine.LogLikelihoodAt(r.Engine.T.Edges[i]); err != nil {
			t.Fatal(err)
		}
	}
	resident := 0
	for vi := 0; vi < sz.NumVectors; vi++ {
		if m.Resident(vi) {
			resident++
		}
	}
	_, peak := m.HeldBytes()
	switch budget := int64(m.Slots()) * sz.VecBytes; {
	case m.Stats().Writes == 0:
		t.Errorf("the run never evicted a dirty vector: %+v", m.Stats())
	case resident <= m.Slots():
		t.Errorf("%d vectors resident in %d slots' bytes: the pool holds widths", resident, m.Slots())
	case peak > budget:
		t.Errorf("the pool held %d B at its peak, over its %d B budget", peak, budget)
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
			if r, err := Open(spec, Options{}, in, sz, sz.Quota); err == nil {
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
		"newick tree_path start_tree seed mem_limit strategy workers kernel"
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
