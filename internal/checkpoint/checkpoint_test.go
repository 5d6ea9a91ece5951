package checkpoint

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"oocphylo/internal/model"
	"oocphylo/internal/plf"
	"oocphylo/internal/sim"
	"oocphylo/internal/tree"
)

func TestCaptureRestoreRoundTrip(t *testing.T) {
	d, err := sim.NewDataset(sim.Config{Taxa: 10, Sites: 200, GammaAlpha: 0.7, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.NewGTR(d.Patterns.BaseFrequencies(), []float64{0.7, 2.4, 1.1, 0.9, 3.0, 1.0}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetGamma(0.55, 4); err != nil {
		t.Fatal(err)
	}
	lnlOf := func(tr *tree.Tree, mm *model.Model) float64 {
		e, err := plf.New(tr, d.Patterns, mm,
			plf.NewInMemoryProvider(tr.NumInner(), plf.VectorLength(mm, d.Patterns.NumPatterns())))
		if err != nil {
			t.Fatal(err)
		}
		lnl, err := e.LogLikelihood()
		if err != nil {
			t.Fatal(err)
		}
		return lnl
	}
	origLnl := lnlOf(d.Tree.Clone(), m)

	st := Capture(d.Tree, m, origLnl, 3)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := Save(path, st); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Round != 3 || loaded.LnL != origLnl {
		t.Errorf("progress metadata lost: %+v", loaded)
	}
	rt, rm, err := loaded.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if tree.RFDistance(rt, d.Tree) != 0 {
		t.Error("topology changed through checkpoint")
	}
	if rm.Alpha != 0.55 || rm.Cats() != 4 {
		t.Errorf("gamma lost: alpha=%v cats=%d", rm.Alpha, rm.Cats())
	}
	// The restored analysis reproduces the likelihood (to round-off of
	// the serialised branch lengths).
	restoredLnl := lnlOf(rt, rm)
	if math.Abs(restoredLnl-origLnl) > 1e-6*math.Abs(origLnl) {
		t.Errorf("restored lnL %v differs from original %v", restoredLnl, origLnl)
	}
}

func TestRestoreHomogeneousModel(t *testing.T) {
	tr, _ := tree.ParseNewick("(a:0.1,b:0.2,c:0.3);")
	m, _ := model.NewJC(4)
	st := Capture(tr, m, -12.5, 0)
	rt, rm, err := st.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if rm.Cats() != 1 {
		t.Errorf("homogeneous model restored with %d categories", rm.Cats())
	}
	if rt.NumTips != 3 {
		t.Error("tree lost")
	}
}

func TestSaveIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.ckpt")
	tr, _ := tree.ParseNewick("(a:0.1,b:0.2,c:0.3);")
	m, _ := model.NewJC(4)
	if err := Save(path, Capture(tr, m, -1, 1)); err != nil {
		t.Fatal(err)
	}
	// Overwrite with a newer state; no stray temp files remain.
	if err := Save(path, Capture(tr, m, -2, 2)); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("stray files after save: %v", entries)
	}
	st, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Round != 2 {
		t.Error("overwrite did not take effect")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "missing.ckpt")); err == nil {
		t.Error("missing file must fail")
	}
	bad := filepath.Join(t.TempDir(), "bad.ckpt")
	_ = os.WriteFile(bad, []byte("{not json"), 0o644)
	if _, err := Load(bad); err == nil {
		t.Error("corrupt file must fail")
	}
}

// TestRestoreValidation: a checkpoint is outside input, so a bad
// version, tree or model is an error, and a state count no alphabet
// has, a frequency vector of the wrong length or an absurd category
// count is rejected before anything is sized by it.
func TestRestoreValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		json string
	}{
		{"version 99", `{"version":99}`},
		{"bad newick", `{"version":2,"newick":"((","states":4,"freqs":[1,1,1,1],"cats":1}`},
		{"negative freq", `{"version":2,"newick":"(a:1,b:1,c:1);","states":4,"freqs":[1,-1,1,1],"cats":1}`},
		{"states 4e9", `{"version":2,"newick":"(a:1,b:1,c:1);","states":4000000000,"freqs":[0.25,0.25,0.25,0.25]}`},
		{"states 2^40", `{"version":2,"newick":"(a:1,b:1,c:1);","states":1099511627776,"freqs":[0.25,0.25,0.25,0.25]}`},
		{"states 0", `{"version":2,"newick":"(a:1,b:1,c:1);","states":0,"freqs":[]}`},
		{"states negative", `{"version":2,"newick":"(a:1,b:1,c:1);","states":-4,"freqs":[0.25,0.25,0.25,0.25]}`},
		{"states 5", `{"version":2,"newick":"(a:1,b:1,c:1);","states":5,"freqs":[0.2,0.2,0.2,0.2,0.2]}`},
		{"freqs short", `{"version":2,"newick":"(a:1,b:1,c:1);","states":20,"freqs":[0.25,0.25,0.25,0.25]}`},
		{"cats 2^40", `{"version":2,"newick":"(a:1,b:1,c:1);","states":4,"freqs":[0.25,0.25,0.25,0.25],"cats":1099511627776,"alpha_inf":true}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var st State
			if err := json.Unmarshal([]byte(tc.json), &st); err != nil {
				t.Fatal(err)
			}
			if _, _, err := st.Restore(); err == nil {
				t.Errorf("Restore accepted %s", tc.json)
			}
		})
	}
}

func TestSaveErrors(t *testing.T) {
	tr, _ := tree.ParseNewick("(a:0.1,b:0.2,c:0.3);")
	m, _ := model.NewJC(4)
	st := Capture(tr, m, -1, 1)
	if err := Save(filepath.Join("/no", "such", "dir", "x.ckpt"), st); err == nil {
		t.Error("unwritable directory must fail")
	}
}

func TestRestoreFallbackExchangeabilities(t *testing.T) {
	// A checkpoint without Exch (e.g. written by a non-GTR model whose
	// Exch slice was empty) restores with unit exchangeabilities.
	st := &State{
		Version: FormatVersion,
		Newick:  "(a:0.1,b:0.2,c:0.3);",
		States:  4,
		Freqs:   []float64{0.25, 0.25, 0.25, 0.25},
		Cats:    1,
	}
	_, m, err := st.Restore()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range m.Exch {
		if e != 1 {
			t.Errorf("fallback exchangeability %v, want 1", e)
		}
	}
}

// TestCheckpointRateModelMatrix round-trips every rate-heterogeneity
// configuration through Save+Load and checks that the restored model
// yields the same category count — and therefore the same provider
// vector length, which is what an out-of-core resume binds its backing
// file geometry to. The alpha=+Inf row is the regression case: JSON
// cannot carry +Inf, and before the AlphaInf flag a restore silently
// came back with Cats()==1 and a mismatched vector length.
func TestCheckpointRateModelMatrix(t *testing.T) {
	const sites = 37 // arbitrary pattern count for vector-length checks
	cases := []struct {
		name     string
		setup    func(m *model.Model) error
		cats     int
		alphaInf bool
	}{
		{"homogeneous", func(m *model.Model) error { return nil }, 1, false},
		{"gamma-finite", func(m *model.Model) error { return m.SetGamma(0.42, 4) }, 4, false},
		{"gamma-infinite-alpha", func(m *model.Model) error { return m.SetGamma(math.Inf(1), 4) }, 4, true},
		{"gamma-plus-inv", func(m *model.Model) error {
			if err := m.SetGamma(1.3, 4); err != nil {
				return err
			}
			return m.SetInvariant(0.2)
		}, 4, false},
		{"homogeneous-plus-inv", func(m *model.Model) error { return m.SetInvariant(0.15) }, 1, false},
	}
	tr, _ := tree.ParseNewick("(a:0.1,b:0.2,(c:0.3,d:0.4):0.5);")
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := model.NewJC(4)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.setup(m); err != nil {
				t.Fatal(err)
			}
			st := Capture(tr, m, -10, 1)
			if st.AlphaInf != tc.alphaInf {
				t.Errorf("AlphaInf = %v, want %v", st.AlphaInf, tc.alphaInf)
			}
			path := filepath.Join(t.TempDir(), "m.ckpt")
			if err := Save(path, st); err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			_, rm, err := loaded.Restore()
			if err != nil {
				t.Fatal(err)
			}
			if rm.Cats() != tc.cats {
				t.Errorf("Cats() = %d after round-trip, want %d", rm.Cats(), tc.cats)
			}
			if got, want := plf.VectorLength(rm, sites), plf.VectorLength(m, sites); got != want {
				t.Errorf("vector length %d after round-trip, want %d (backing file geometry would mismatch)", got, want)
			}
			if rm.PInv != m.PInv {
				t.Errorf("PInv = %v, want %v", rm.PInv, m.PInv)
			}
			if rm.Cats() > 1 && !tc.alphaInf && rm.Alpha != m.Alpha {
				t.Errorf("Alpha = %v, want %v", rm.Alpha, m.Alpha)
			}
			if tc.alphaInf {
				// The restored rates must be the alpha→∞ limit: all 1.
				for _, r := range rm.Rates {
					if r != 1 {
						t.Errorf("alpha=+Inf restored rate %v, want 1", r)
					}
				}
			}
		})
	}
}

// TestCheckpointStoreManifest: checkpoints written before PR 23 carry a
// "store" block (the backing file's manifest). Nothing reads it any
// more — a resume recomputes every vector — but such a file must still
// load and restore, and a re-save simply drops the block.
func TestCheckpointStoreManifest(t *testing.T) {
	legacy := `{
  "version": 2,
  "newick": "((a:0.1,b:0.2):0.05,c:0.3,d:0.1);",
  "states": 4,
  "freqs": [0.25, 0.25, 0.25, 0.25],
  "cats": 1,
  "lnl": -999.5,
  "round": 4,
  "store": {"num_vectors": 2, "vector_len": 96, "generation": 42, "sum_of_sums": 3735928559, "precision": "f32"},
  "search": {"start_lnl": -1300.25, "last_improved": 3, "moves_applied": 5, "moves_tested": 60}
}`
	path := filepath.Join(t.TempDir(), "s.ckpt")
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Round != 4 || st.LnL != -999.5 || st.Search == nil || st.Search.MovesTested != 60 {
		t.Errorf("fields around the store block lost: %+v", st)
	}
	if tr, m, err := st.Restore(); err != nil || tr.NumTips != 4 || m.States != 4 {
		t.Errorf("legacy checkpoint does not restore: %v", err)
	}
	if err := Save(path, st); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(path); strings.Contains(string(data), `"store"`) {
		t.Errorf("re-saved checkpoint still carries a store block:\n%s", data)
	}
}

func TestCheckpointPersistsPInv(t *testing.T) {
	tr, _ := tree.ParseNewick("(a:0.1,b:0.2,c:0.3);")
	m, _ := model.NewJC(4)
	_ = m.SetGamma(0.7, 4)
	if err := m.SetInvariant(0.35); err != nil {
		t.Fatal(err)
	}
	_, rm, err := Capture(tr, m, -5, 2).Restore()
	if err != nil {
		t.Fatal(err)
	}
	if rm.PInv != 0.35 {
		t.Errorf("PInv lost through checkpoint: %v", rm.PInv)
	}
}
