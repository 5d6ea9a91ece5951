package experiments

import (
	"math"
	"strings"
	"testing"

	"oocphylo/internal/ooc"
)

func TestRunResizeAblationSmall(t *testing.T) {
	cfg := ResizeAblationConfig{Taxa: 24, Sites: 120, Seed: 3, TraversalsPerPhase: 1}
	rows, err := RunResizeAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	perStrategy := map[string][]ResizePhaseRow{}
	for _, r := range rows {
		perStrategy[r.Strategy] = append(perStrategy[r.Strategy], r)
	}
	if len(perStrategy) != len(StrategyNames) {
		t.Fatalf("got strategies %v, want %v", len(perStrategy), len(StrategyNames))
	}
	var lnlBits uint64
	for name, seq := range perStrategy {
		// The schedule is shared, descending, and ends at the floor.
		for i := 1; i < len(seq); i++ {
			if seq[i].Slots >= seq[i-1].Slots {
				t.Errorf("%s: slots did not shrink: %d -> %d", name, seq[i-1].Slots, seq[i].Slots)
			}
		}
		last := seq[len(seq)-1]
		if last.Slots != ooc.MinSlots {
			t.Errorf("%s: trajectory ends at %d slots, want the floor", name, last.Slots)
		}
		for _, r := range seq {
			if r.Requests <= 0 {
				t.Errorf("%s phase %d: no requests recorded", name, r.Phase)
			}
			if lnlBits == 0 {
				lnlBits = math.Float64bits(r.LnL)
			} else if math.Float64bits(r.LnL) != lnlBits {
				t.Errorf("%s phase %d: lnL %.17g differs across segments", name, r.Phase, r.LnL)
			}
		}
	}

	var sb strings.Builder
	WriteResizeTable(&sb, rows, cfg)
	for _, want := range []string{"shrink trajectory", "strategy", "LRU", "RAND"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("table missing %q:\n%s", want, sb.String())
		}
	}
}

func TestRunResizeOverheadSmall(t *testing.T) {
	res, err := RunResizeOverhead(ResizeAblationConfig{Taxa: 24, Sites: 120, Seed: 5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resizes == 0 {
		t.Fatal("oscillating run never resized")
	}
	if math.Float64bits(res.ResizeLnL) != math.Float64bits(res.FixedLnL) {
		t.Errorf("lnL diverged: %.17g vs %.17g", res.ResizeLnL, res.FixedLnL)
	}
	if res.Low >= res.Slots {
		t.Errorf("low bound %d not below slots %d", res.Low, res.Slots)
	}
	// Shrinks evict, so the oscillating run cannot have done less store
	// traffic than the fixed run.
	if res.ResizeStats.Reads < res.FixedStats.Reads {
		t.Errorf("oscillating run read less than fixed: %d < %d",
			res.ResizeStats.Reads, res.FixedStats.Reads)
	}
}
