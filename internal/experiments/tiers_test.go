package experiments

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// smallTierConfig keeps the ablation fast enough for the unit suite
// while preserving every ratio the assertions turn on.
func smallTierConfig() TierAblationConfig {
	return TierAblationConfig{
		Workload: SearchWorkloadConfig{
			Taxa: 24, Sites: 80, Seed: 5, SPRRadius: 3, Rounds: 1,
		},
		RTTs: []time.Duration{2 * time.Millisecond},
	}
}

// tierRows runs the ablation once for every test that reads its rows
// (the arms are latency-bound: seconds, not milliseconds).
var tierRows = sync.OnceValues(func() ([]TierAblationRow, error) { return RunTierAblation(smallTierConfig()) })

// TestTierAblationArms runs the full three-arm ablation at one injected
// RTT. RunTierAblation itself enforces the acceptance counters: every
// arm bit-identical to the local FileStore baseline and the full arm
// serving >= 70% of read demand without a remote trip.
func TestTierAblationArms(t *testing.T) {
	rows, err := tierRows()
	if err != nil {
		t.Fatal(err)
	}
	// local + (cold, full) per RTT.
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	byArm := map[string]TierAblationRow{}
	for _, r := range rows {
		byArm[r.Arm] = r
	}
	cold, full := byArm["cold"], byArm["full"]
	if cold.Tier.RemoteVectorsRead == 0 {
		t.Errorf("cold arm never read from the remote tier: %+v", cold.Tier)
	}
	// A cache that holds every vector never misses: the run reads only
	// vectors it wrote, and every write lands in the cache.
	if full.Tier.CacheMisses != 0 || full.Tier.RemoteVectorsRead != 0 || full.LocalFraction != 1 {
		t.Errorf("full arm went remote: %+v", full.Tier)
	}
	var sb strings.Builder
	WriteTierTable(&sb, rows, smallTierConfig())
	for _, want := range []string{"local", "cold", "full", "lnL identical"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("table missing %q:\n%s", want, sb.String())
		}
	}
	t.Logf("\n%s", sb.String())
}

// TestTierAblationAsyncPipeline is the differential arm of the suite:
// every manager runs the async I/O pipeline, and over the tiered stack
// it must stay bit-identical to the local FileStore baseline while
// actually moving vectors through the store.
func TestTierAblationAsyncPipeline(t *testing.T) {
	rows, err := tierRows()
	if err != nil {
		t.Fatal(err)
	}
	base := rows[0]
	if base.Arm != "local" {
		t.Fatalf("first row is %q, want the local baseline", base.Arm)
	}
	for _, r := range rows {
		if r.LnL != base.LnL {
			t.Errorf("%s arm diverged: %.10f != %.10f", r.Arm, r.LnL, base.LnL)
		}
		if r.Manager.Misses == 0 || r.Manager.Writes == 0 {
			t.Errorf("%s arm never swapped through the pipeline: %+v", r.Arm, r.Manager)
		}
	}
}
