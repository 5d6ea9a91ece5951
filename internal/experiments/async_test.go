package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"oocphylo/internal/iosim"
)

// Tiny dimensions with Realtime=0: the harness still enforces the
// sync/async correctness bar internally (identical lnL, Stats and
// prefetch ledgers), which is the property this test is after — the
// stall numbers themselves are only meaningful at the real defaults.
func TestAsyncAblationSmoke(t *testing.T) {
	cfg := AsyncAblationConfig{
		Taxa: 24, Sites: 64, Seed: 5, Traversals: 2,
		Realtime: -1, // fill() treats 0 as "default"; negative disables sleeping
		Device:   iosim.Device{Name: "test", Latency: time.Microsecond, Bandwidth: 1e9},
		Depths:   []int{1, 3},
	}
	rows, err := RunAsyncAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("expected 2 depths, got %d", len(rows))
	}
	for _, r := range rows {
		if r.Misses == 0 || r.Reads == 0 {
			t.Errorf("depth %d: workload produced no misses/reads: %+v", r.Depth, r)
		}
		// A stage-in is a queued fetch, or a copy of a write-back buffer
		// not yet reused (counted with the demand reads it serves).
		if r.Prefetch.Reads > r.Pipeline.FetchesQueued+r.Pipeline.WriteQueueHits {
			t.Errorf("depth %d: async run staged %d prefetches with %d fetches queued and %d write-queue hits",
				r.Depth, r.Prefetch.Reads, r.Pipeline.FetchesQueued, r.Pipeline.WriteQueueHits)
		}
		if !r.Pipeline.Enabled {
			t.Errorf("depth %d: async run's pipeline stats not marked enabled", r.Depth)
		}
	}
	var buf bytes.Buffer
	WriteAsyncAblationTable(&buf, rows, cfg)
	out := buf.String()
	for _, want := range []string{"depth", "sync-stall", "hidden", "joined", "lnL"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation table missing %q:\n%s", want, out)
		}
	}
}
