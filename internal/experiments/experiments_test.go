package experiments

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"oocphylo/internal/ooc"
)

// Small dimensions keep the suite fast; the assertions are about the
// *shapes* the paper reports, which hold at any scale.
var testCfg = SearchWorkloadConfig{Taxa: 40, Sites: 80, Seed: 7, Rounds: 1, SPRRadius: 4}

// The three search sweeps run once each, for the shape tests and the
// golden table alike.
var (
	figure2Rows = sync.OnceValues(func() ([]MissRateResult, error) { return RunFigure2(testCfg, nil, false) })
	figure3Rows = sync.OnceValues(func() ([]MissRateResult, error) { return RunFigure2(testCfg, []float64{0.25}, true) })
	figure4Rows = sync.OnceValues(func() ([]MissRateResult, error) { return RunFigure4(testCfg, 0.75, 5) })
)

func TestFigure2Shapes(t *testing.T) {
	results, err := figure2Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4*3 {
		t.Fatalf("expected 12 points, got %d", len(results))
	}
	// §4.1 determinism: identical final likelihood everywhere.
	for _, r := range results[1:] {
		if r.LnL != results[0].LnL {
			t.Fatalf("lnL differs across configurations: %v vs %v (%s f=%v)",
				r.LnL, results[0].LnL, r.Strategy, r.F)
		}
	}
	// Per strategy: miss rate decreases as f grows.
	byStrategy := map[string][]MissRateResult{}
	for _, r := range results {
		byStrategy[r.Strategy] = append(byStrategy[r.Strategy], r)
	}
	for name, rs := range byStrategy {
		for i := 1; i < len(rs); i++ {
			if rs[i].F < rs[i-1].F {
				t.Fatalf("%s results out of f order", name)
			}
			if rs[i].Stats.MissRate() > rs[i-1].Stats.MissRate()+1e-9 {
				t.Errorf("%s: miss rate not decreasing with f: %v", name, rs)
			}
		}
	}
	// Without read skipping, read rate == miss rate.
	for _, r := range results {
		if r.Stats.ReadRate() != r.Stats.MissRate() {
			t.Errorf("%s f=%v: read rate %v != miss rate %v without skipping",
				r.Strategy, r.F, r.Stats.ReadRate(), r.Stats.MissRate())
		}
	}
	// The paper's ranking: LFU is clearly the worst performer.
	lfu := avgMiss(byStrategy["LFU"])
	for _, other := range []string{"LRU", "RAND", "Topological"} {
		if lfu <= avgMiss(byStrategy[other]) {
			t.Errorf("LFU (%v) should be worse than %s (%v)", lfu, other, avgMiss(byStrategy[other]))
		}
	}
}

func avgMiss(rs []MissRateResult) float64 {
	s := 0.0
	for _, r := range rs {
		s += r.Stats.MissRate()
	}
	return s / float64(len(rs))
}

func TestFigure3ReadSkippingLowersReads(t *testing.T) {
	all, err := figure2Rows()
	if err != nil {
		t.Fatal(err)
	}
	var plain []MissRateResult
	for _, r := range all {
		if r.F == 0.25 {
			plain = append(plain, r)
		}
	}
	skipped, err := figure3Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(skipped) {
		t.Fatalf("%d plain rows at f=0.25, %d with read skipping", len(plain), len(skipped))
	}
	for i := range plain {
		if skipped[i].LnL != plain[i].LnL {
			t.Errorf("read skipping changed the result for %s", plain[i].Strategy)
		}
		if skipped[i].Stats.Misses != plain[i].Stats.Misses {
			t.Errorf("%s: read skipping must not change miss behaviour", plain[i].Strategy)
		}
		if skipped[i].Stats.ReadRate() >= plain[i].Stats.ReadRate() {
			t.Errorf("%s: read skipping did not reduce reads (%v vs %v)",
				plain[i].Strategy, skipped[i].Stats.ReadRate(), plain[i].Stats.ReadRate())
		}
	}
}

func TestFigure4Shape(t *testing.T) {
	results, err := figure4Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) < 3 {
		t.Fatalf("halving sweep too short: %d points", len(results))
	}
	// f decreases along the sweep, miss rate must not decrease.
	for i := 1; i < len(results); i++ {
		if results[i].F >= results[i-1].F {
			t.Fatal("fractions must decrease")
		}
		if results[i].Stats.MissRate() < results[i-1].Stats.MissRate()-1e-9 {
			t.Errorf("miss rate should grow as f shrinks: %v then %v",
				results[i-1].Stats.MissRate(), results[i].Stats.MissRate())
		}
		if results[i].LnL != results[0].LnL {
			t.Error("determinism violated in figure 4 sweep")
		}
	}
	last := results[len(results)-1]
	if last.Slots != 5 {
		t.Errorf("sweep should end at 5 slots (the paper's minimum), got %d", last.Slots)
	}
	// Even at five slots the workload retains locality: misses stay well
	// below half of all requests (the paper reports ~20%).
	if mr := last.Stats.MissRate(); mr >= 0.5 {
		t.Errorf("5-slot miss rate %v; locality claim would fail", mr)
	}
}

func TestFigure5Shapes(t *testing.T) {
	cfg := Figure5Config{
		Taxa:     32,
		Widths:   []int{64, 1024, 3072},
		RAMBytes: 3 << 20,
		Seed:     3,
	}
	rows, err := RunFigure5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("expected 3 rows, got %d", len(rows))
	}
	for i, r := range rows {
		if r.LnLStandard != r.LnLOOC {
			t.Fatalf("row %d: standard and ooc likelihoods differ", i)
		}
		if i > 0 && r.FootprintBytes <= rows[i-1].FootprintBytes {
			t.Fatal("footprints must grow with width")
		}
		if i > 0 && r.MajorFaults < rows[i-1].MajorFaults {
			t.Errorf("page faults should not shrink as footprint grows: %v", rows)
		}
	}
	first, last := rows[0], rows[len(rows)-1]
	if first.OverSubscription >= 1 {
		t.Fatal("first width should fit in RAM; adjust test geometry")
	}
	if last.OverSubscription <= 2 {
		t.Fatal("last width should oversubscribe RAM; adjust test geometry")
	}
	// In-RAM: the standard version pays no I/O at all.
	if first.StandardIO != 0 || first.MajorFaults != 0 {
		t.Errorf("fits-in-RAM run should not fault: io=%v faults=%d", first.StandardIO, first.MajorFaults)
	}
	// Oversubscribed: out-of-core I/O must beat paging I/O clearly, with
	// the paper's full-width records too; prefix records move fewer bytes.
	if last.OOCFullIO*2 >= last.StandardIO {
		t.Errorf("ooc (full-width lru io %v) should beat paging (io %v) by >2x when oversubscribed",
			last.OOCFullIO, last.StandardIO)
	}
	if last.OOCLRUIO >= last.OOCFullIO {
		t.Errorf("prefix records (lru io %v) should cost less I/O than full-width ones (%v)",
			last.OOCLRUIO, last.OOCFullIO)
	}
	if last.MajorFaults == 0 {
		t.Error("oversubscribed paging run must fault")
	}
}

func TestNewStrategyUnknown(t *testing.T) {
	if _, err := ooc.StrategyByName("FIFO", 10, nil, 1); err == nil {
		t.Error("unknown strategy must error")
	}
}

func TestTableWriters(t *testing.T) {
	results, err := RunFigure2(SearchWorkloadConfig{Taxa: 24, Sites: 40, Seed: 1, Rounds: 1, SPRRadius: 3},
		[]float64{0.5}, false)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	WriteMissRateTable(&buf, results, "Figure 2")
	out := buf.String()
	for _, want := range []string{"Figure 2", "LRU", "LFU", "RAND", "Topological", "miss%"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	cfg := Figure5Config{Taxa: 24, Widths: []int{64, 512}, RAMBytes: 1 << 20, Seed: 2}
	rows, err := RunFigure5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	WriteFigure5Table(&buf, rows, cfg)
	if !strings.Contains(buf.String(), "pagefaults") || !strings.Contains(buf.String(), "ooc-lru") {
		t.Errorf("figure 5 table malformed:\n%s", buf.String())
	}
}
