package experiments

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"sync"
	"testing"

	"oocphylo/internal/analysis"
	"oocphylo/internal/ooc"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/tables.golden from this run")

const goldenPath = "testdata/tables.golden"

func bits(x float64) string { return fmt.Sprintf("%016x", math.Float64bits(x)) }

// goldenTables lists every experiment at its test-scale configuration
// with the columns that do not depend on the clock or on goroutine
// scheduling: likelihood bit patterns and, for the paper's arms, the
// I/O counters, for the recovery ablation its fault and repair counters
// too (each fault die follows its vector's own calls). The rest (tiers,
// chaos, obs-overhead) contribute their lnL only.
var goldenTables = []struct {
	name string
	rows func() ([]string, error)
}{
	{"fig2", func() ([]string, error) {
		res, err := figure2Rows()
		return missRateRows(res), err
	}},
	{"fig3", func() ([]string, error) {
		res, err := figure3Rows()
		return missRateRows(res), err
	}},
	{"fig4", func() ([]string, error) {
		res, err := figure4Rows()
		return missRateRows(res), err
	}},
	{"fig5", func() ([]string, error) {
		rows, err := RunFigure5(Figure5Config{Taxa: 32, Widths: []int{64, 1024, 3072}, RAMBytes: 3 << 20, Seed: 3})
		var out []string
		for _, r := range rows {
			out = append(out, fmt.Sprintf("sites=%d footprint=%d faults=%d paging_io=%d lru_io=%d lru_miss=%d rand_io=%d rand_miss=%d lru_full_io=%d lnl=%s",
				r.Sites, r.FootprintBytes, r.MajorFaults, r.StandardIO, r.OOCLRUIO, r.OOCLRUMisses,
				r.OOCRandIO, r.OOCRandMisses, r.OOCFullIO, bits(r.LnLOOC)))
		}
		return out, err
	}},
	{"recovery", func() ([]string, error) {
		var out []string
		for _, cfg := range []RecoveryConfig{{Taxa: 24, Sites: 64, Seed: 5, Rounds: 2}, {Taxa: 24, Sites: 96, Rounds: 1}} {
			r, err := RunRecoveryAblation(cfg, nil)
			if err != nil {
				return nil, err
			}
			out = append(out, fmt.Sprintf("taxa=%d sites=%d seed=%d rounds=%d faults=%+v corrupt=%d recovered=%d extra_newviews=%d lnl=%s",
				cfg.Taxa, cfg.Sites, cfg.Seed, cfg.Rounds, r.Faults, r.CorruptReads, r.Recoveries, r.ExtraNewviews, bits(r.LnL)))
		}
		return out, nil
	}},
	{"resize", func() ([]string, error) {
		rows, err := RunResizeAblation(ResizeAblationConfig{Taxa: 24, Sites: 120, Seed: 3, TraversalsPerPhase: 1})
		var out []string
		for _, r := range rows {
			out = append(out, fmt.Sprintf("%s phase=%d slots=%d requests=%d misses=%d lnl=%s",
				r.Strategy, r.Phase, r.Slots, r.Requests, r.Misses, bits(r.LnL)))
		}
		return out, err
	}},
	{"resize-overhead", func() ([]string, error) {
		r, err := RunResizeOverhead(ResizeAblationConfig{Taxa: 24, Sites: 120, Seed: 5}, 3)
		if err != nil {
			return nil, err
		}
		return []string{fmt.Sprintf("slots=%d low=%d resizes=%d fixed=%+v oscillating=%+v lnl=%s",
			r.Slots, r.Low, r.Resizes, r.FixedStats, r.ResizeStats, bits(r.ResizeLnL))}, nil
	}},
	{"tiers-async", func() ([]string, error) {
		rows, err := tierRows()
		var out []string
		for _, r := range rows {
			out = append(out, fmt.Sprintf("%s lnl=%s", r.Arm, bits(r.LnL)))
		}
		return out, err
	}},
	{"chaos", func() ([]string, error) {
		r, err := RunChaosSoak(smallChaosConfig())
		if err != nil {
			return nil, err
		}
		return []string{fmt.Sprintf("lnl=%s", bits(r.LnL))}, nil
	}},
	{"obs-overhead", func() ([]string, error) {
		r, err := RunObsOverhead(16, 64, 1, 1, 7)
		return []string{fmt.Sprintf("lnl=%s", bits(r.LnLSpans))}, err
	}},
}

func missRateRows(res []MissRateResult) []string {
	var out []string
	for _, r := range res {
		out = append(out, fmt.Sprintf("%s f=%.4f slots=%d stats=%+v lnl=%s", r.Strategy, r.F, r.Slots, r.Stats, bits(r.LnL)))
	}
	return out
}

// runGoldenTables runs every experiment once, for both tests below.
var runGoldenTables = sync.OnceValues(func() (string, error) {
	// The tier ablation waits on injected round trips, not on the CPU:
	// it runs beside everything up to the row that needs it.
	go tierRows()
	var got strings.Builder
	for _, tc := range goldenTables {
		rows, err := tc.rows()
		if err != nil {
			return "", fmt.Errorf("%s: %w", tc.name, err)
		}
		for _, r := range rows {
			fmt.Fprintf(&got, "%s: %s\n", tc.name, r)
		}
	}
	return got.String(), nil
})

// TestTablesMatchGolden pins the tables: every experiment's clock-free
// columns must equal, byte for byte, the rows recorded in
// testdata/tables.golden (regenerate with -update, and say in CHANGES.md
// which shipped rule moved a row).
func TestTablesMatchGolden(t *testing.T) {
	got, err := runGoldenTables()
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
}

// armLog is what the opened hook has seen of this process's arms: the
// shipped rules each one broke, and how many of each kind went by.
var armLog struct {
	sync.Mutex
	violations []string
	kinds      map[string]int
}

func init() {
	armLog.kinds = map[string]int{}
	opened = func(a arm, r *analysis.Run) {
		armLog.Lock()
		defer armLog.Unlock()
		fail := func(format string, args ...any) {
			armLog.violations = append(armLog.violations, fmt.Sprintf("%+v: ", a)+fmt.Sprintf(format, args...))
		}
		sz := r.Sizing
		if (r.Manager != nil) != sz.OutOfCore {
			fail("manager = %v but out-of-core = %v", r.Manager != nil, sz.OutOfCore)
		}
		if a.Registry != nil {
			// The kernel is chosen before the engine is instrumented.
			if got := a.Registry.Snapshot().Info["plf.kernel"]; got != r.Engine.KernelName() {
				fail("registry says kernel %q, engine runs %q", got, r.Engine.KernelName())
			}
			armLog.kinds["instrumented"]++
		}
		if r.Manager == nil {
			armLog.kinds["ram"]++
			return
		}
		// The -L rule: the grant buys slots after the store's heap and
		// the pipeline's spare buffers are charged; an arm's grant is its
		// quota with those buffers on top.
		grant := sz.Quota + ooc.PipelineBytes(sz.VecLen)
		if want := ooc.SlotsForBytes(grant, r.Manager.MemOverheadBytes(), sz.VecBytes, sz.NumVectors); r.Manager.Slots() != want {
			fail("%d slots, -L %d buys %d", r.Manager.Slots(), grant, want)
		}
		for kind, is := range map[string]bool{
			"base": a.Stack.Base != nil, "file": a.Stack.Base == nil && a.Stack.URL == "",
			"remote": r.Stack.Tier != nil, "faulted": r.Stack.Fault != nil,
		} {
			if is {
				armLog.kinds[kind]++
			}
		}
	}
}

// TestArmsAreShippable walks every arm the experiments opened and holds
// the run it got to what oocraxml builds from the equivalent flags (the
// store-medium rules are analysis.TestOpen's).
func TestArmsAreShippable(t *testing.T) {
	if _, err := runGoldenTables(); err != nil {
		t.Fatal(err)
	}
	armLog.Lock()
	defer armLog.Unlock()
	for _, v := range armLog.violations {
		t.Error(v)
	}
	for _, kind := range []string{"ram", "base", "file", "remote", "faulted", "instrumented"} {
		if armLog.kinds[kind] == 0 {
			t.Errorf("no %s arm was opened; saw %v", kind, armLog.kinds)
		}
	}
	t.Logf("arms opened: %v", armLog.kinds)
}
