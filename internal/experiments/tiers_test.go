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

// tierRows runs the ablation once per manager flavour for every test
// that reads its rows (the arms are latency-bound: seconds, not
// milliseconds).
var tierRowsOnce = [2]func() ([]TierAblationRow, error){
	sync.OnceValues(func() ([]TierAblationRow, error) { return RunTierAblation(smallTierConfig()) }),
	sync.OnceValues(func() ([]TierAblationRow, error) {
		cfg := smallTierConfig()
		cfg.Async = true
		return RunTierAblation(cfg)
	}),
}

func tierRows(async bool) ([]TierAblationRow, error) {
	if async {
		return tierRowsOnce[1]()
	}
	return tierRowsOnce[0]()
}

// TestTierAblationArms runs the full three-arm ablation at one injected
// RTT. RunTierAblation itself enforces the acceptance counters: every
// arm bit-identical to the local FileStore baseline and the full arm
// serving >= 70% of read demand without a remote trip.
func TestTierAblationArms(t *testing.T) {
	rows, err := tierRows(false)
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
// the async I/O pipeline over the tiered stack must be bit-identical
// too (RunTierAblation compares against the async local baseline).
func TestTierAblationAsyncPipeline(t *testing.T) {
	if _, err := tierRows(true); err != nil {
		t.Fatal(err)
	}
}
