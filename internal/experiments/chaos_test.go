package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"oocphylo/internal/iosim"
)

// smallChaosConfig keeps the soak fast enough for the unit suite while
// still forcing partitions, breaker trips and refused write-backs. The
// stall duration stays above the deadline so stalls become timeouts.
func smallChaosConfig() ChaosSoakConfig {
	return ChaosSoakConfig{
		Workload: SearchWorkloadConfig{
			Taxa: 24, Sites: 80, Seed: 5, SPRRadius: 3, Rounds: 1,
		},
		Chaos: iosim.ChaosConfig{
			Seed:           11,
			DropProb:       0.06,
			ErrorProb:      0.06,
			CorruptProb:    0.03,
			TruncateProb:   0.03,
			PartitionEvery: 12, PartitionFor: 10,
		},
		RemoteDeadline: 100 * time.Millisecond,
	}
}

// TestChaosSoak is the acceptance run: search over a remote store that
// drops, lies, stalls and partitions must end bit-identical to the
// clean run, with the breaker having tripped.
// RunChaosSoak enforces all of that internally; the test adds checks
// on the texture of the run — faults of several kinds actually fired
// and the engine visibly absorbed them.
func TestChaosSoak(t *testing.T) {
	cfg := smallChaosConfig()
	res, err := RunChaosSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Chaos.Partitioned == 0 {
		t.Errorf("flap schedule never partitioned: %+v", res.Chaos)
	}
	if res.Tier.ShortCircuits == 0 {
		t.Errorf("breaker opened %d times but short-circuited nothing", res.Tier.BreakerOpens)
	}
	if res.Recoveries == 0 {
		t.Error("engine reports no read recoveries — the faults never reached it")
	}
	var sb strings.Builder
	WriteChaosTable(&sb, res, cfg)
	for _, want := range []string{"bit-identical", "breaker opens", "overflow:"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("table missing %q:\n%s", want, sb.String())
		}
	}
	t.Logf("\n%s", sb.String())
}

// TestChaosSoakDeterministicInjection pins the chaos policy itself:
// the same seed and requests must yield the same fault sequence.
func TestChaosSoakDeterministicInjection(t *testing.T) {
	mix := iosim.ChaosConfig{Seed: 3, DropProb: 0.2, ErrorProb: 0.2, CorruptProb: 0.1}
	a, b := iosim.NewChaos(mix), iosim.NewChaos(mix)
	for i := 0; i < 500; i++ {
		span := fmt.Sprintf("bytes=%d-%d", i%7*100, i%7*100+99)
		fa, _ := a.Next("GET", "vecs", span)
		fb, _ := b.Next("GET", "vecs", span)
		if fa != fb {
			t.Fatalf("request %d: %v != %v with identical seeds", i, fa, fb)
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
}
