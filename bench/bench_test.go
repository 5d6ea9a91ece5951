package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// smoke runs one workload at toy scale with a fixed op count.
func smoke(t *testing.T, workload string, seed int64, trace bool) *report {
	t.Helper()
	r, err := run(options{workload: workload, seed: seed, ops: 5, trace: trace, scale: "smoke", out: t.TempDir()})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !r.Correct || r.Failed != 0 {
		t.Fatalf("%s: %d of %d ops failed", workload, r.Failed, r.Attempted)
	}
	return r
}

// TestDeclaration holds BENCHMARK.json and the harness's own tables
// together: same workloads, same metrics, same units, same bounds.
func TestDeclaration(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit, Better, Why string }
	var b struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []decl
		EndToEnd   []struct {
			decl
			Bound float64
		} `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		check(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d: declared %q %q, implemented %q %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("declared %d+%d metrics, implemented %d+%d", len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range b.EndToEnd {
		check(m.Name)
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit || m.Bound != bounds[m.Name] || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %d: declared %+v, implemented %+v bound %v", i, m, endToEnd[i], bounds[m.Name])
		}
	}
	for i, m := range b.PerLayer {
		check(m.Name)
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: declared %+v, implemented %+v", i, m, perLayer[i])
		}
	}
	if !reflect.DeepEqual(b.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(b.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", b.Command, b.Paths)
	}
}

// TestSmokeMetrics checks that every run emits every declared metric of
// its kind, finite and with its unit, and that the end-to-end ones are
// never zero.
func TestSmokeMetrics(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			r := smoke(t, w.name, 42, trace)
			declared := endToEnd
			if trace {
				declared = perLayer
			}
			if len(r.Metrics) != len(declared) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(r.Metrics), len(declared))
			}
			for _, m := range declared {
				v, ok := r.Metrics[m.name]
				if !ok || v.Unit != m.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v)", w.name, trace, m.name, v, ok)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v", w.name, m.name, v.Value)
				}
			}
		}
	}
}

// TestCountsRepeat checks that, at a fixed op count, the counts a later
// change may rest a claim on repeat exactly. serve-remote is left out:
// two concurrent clients make its batching, and so its counters, depend
// on timing.
func TestCountsRepeat(t *testing.T) {
	counts := []string{
		"plf.newviews", "plf.evaluations", "plf.sum_tables", "plf.newton_iters",
		"ooc.manager.requests", "ooc.manager.miss_ratio", "ooc.manager.read_ratio",
		"ooc.filestore.reads", "ooc.filestore.writes", "search.moves_tested", "search.moves_accepted",
	}
	for _, w := range []string{"trav-ram", "trav-ooc", "search-ooc"} {
		a, b := smoke(t, w, 42, true), smoke(t, w, 42, true)
		for _, name := range counts {
			if a.Metrics[name] != b.Metrics[name] {
				t.Errorf("%s: %s = %v, then %v", w, name, a.Metrics[name].Value, b.Metrics[name].Value)
			}
		}
		if !reflect.DeepEqual(a.timed.lnlBits, b.timed.lnlBits) {
			t.Errorf("%s: answers differ between two runs at one seed", w)
		}
	}
	if a, b := smoke(t, "trav-ram", 42, true), smoke(t, "trav-ooc", 42, true); a.Metrics["plf.newviews"] != b.Metrics["plf.newviews"] {
		t.Errorf("plf.newviews: trav-ram %v, trav-ooc %v", a.Metrics["plf.newviews"].Value, b.Metrics["plf.newviews"].Value)
	}
}

func TestSeedChangesEdges(t *testing.T) {
	if reflect.DeepEqual(edgeCycle(42, 2573, 64), edgeCycle(7, 2573, 64)) {
		t.Error("seeds 42 and 7 draw the same edge sequence")
	}
	if !reflect.DeepEqual(edgeCycle(42, 2573, 64), edgeCycle(42, 2573, 64)) {
		t.Error("one seed draws two edge sequences")
	}
}

// TestWrappersAreTransparent checks that the timing wrappers change
// nothing the program computes or decides: a traced and an untraced run
// give the same answers and the same manager counters.
func TestWrappersAreTransparent(t *testing.T) {
	for _, w := range []string{"trav-ooc", "search-ooc"} {
		plain, traced := smoke(t, w, 42, false), smoke(t, w, 42, true)
		if !reflect.DeepEqual(plain.timed.lnlBits, traced.timed.lnlBits) {
			t.Errorf("%s: traced answers differ from untraced", w)
		}
		if plain.timed.mgr != traced.timed.mgr || plain.timed.mgr.Requests == 0 {
			t.Errorf("%s: manager counters untraced %+v, traced %+v", w, plain.timed.mgr, traced.timed.mgr)
		}
	}
}

// TestSearchOutOfCoreEqualsRAM checks the paper's correctness
// criterion on the search workload: the out-of-core run finds exactly
// the in-RAM run's tree and likelihood.
func TestSearchOutOfCoreEqualsRAM(t *testing.T) {
	var got [2]timed
	for i, inRAM := range []bool{false, true} {
		inst, err := setupSearch(&env{seed: 42, sc: scales["smoke"], dir: t.TempDir()}, inRAM)
		if err != nil {
			t.Fatal(err)
		}
		got[i], err = inst.measure(func(done int, _ time.Duration) bool { return done < 40 })
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.close(); err != nil {
			t.Fatal(err)
		}
	}
	if got[0].attempted == 0 || got[0].failed != 0 || got[0].attempted != got[1].attempted || !reflect.DeepEqual(got[0].lnlBits, got[1].lnlBits) {
		t.Errorf("out-of-core %d moves, bits %x; in RAM %d moves, bits %x", got[0].attempted, got[0].lnlBits, got[1].attempted, got[1].lnlBits)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// gives [3.5, 13.5, 31.0].
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles %v %v, want 3.5 31", q1, q3)
	}
}
