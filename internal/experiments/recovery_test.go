package experiments

import (
	"bytes"
	"strings"
	"testing"

	"oocphylo/internal/ooc"
)

// TestFaultRecoveryEquivalence is the tentpole's acceptance test: a
// workload over a FaultStore injecting read EIO, torn writes and
// bit flips must finish with the bit-identical final log-likelihood of
// a fault-free run — for the synchronous AND the asynchronous manager
// (RunRecoveryAblation enforces the equality internally and errors out
// on divergence). The CI soak runs this with -count=5; the seed loop
// below varies the fault sequence within each run as well.
func TestFaultRecoveryEquivalence(t *testing.T) {
	for _, seed := range []int64{5, 23, 71} {
		seed := seed
		t.Run("seed"+string(rune('0'+seed%10)), func(t *testing.T) {
			// PReadErr is high enough that every seed's synchronous arm
			// draws a read EIO: the arm holds f·n slots and reads little
			// (seed 23's draws none at 0.15).
			cfg := RecoveryConfig{
				Taxa: 24, Sites: 64, Seed: seed, Traversals: 2,
				Faults: ooc.FaultConfig{
					Seed:     seed * 131,
					PReadErr: 0.20, MaxReadErrs: 6,
					PTornWrite: 0.10, MaxTornWrites: 4,
					PBitFlip: 0.25, MaxBitFlips: 4,
				},
			}
			rows, err := RunRecoveryAblation(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != 2 {
				t.Fatalf("expected sync+async rows, got %d", len(rows))
			}
			if rows[0].Async || !rows[1].Async {
				t.Fatalf("row order wrong: %+v", rows)
			}
			for _, r := range rows {
				mode := "sync"
				if r.Async {
					mode = "async"
				}
				// The acceptance criterion names all three fault kinds. The
				// synchronous arm's dice fall in a fixed order; the async
				// arm's follow its fetch workers' interleaving, which may
				// draw no read EIO at all.
				if !r.Async && r.Faults.ReadErrs == 0 {
					t.Errorf("%s: no read EIO injected: %+v", mode, r.Faults)
				}
				if r.Faults.TornWrites == 0 {
					t.Errorf("%s: no torn write injected: %+v", mode, r.Faults)
				}
				if r.Faults.BitFlips == 0 {
					t.Errorf("%s: no bit flip injected: %+v", mode, r.Faults)
				}
				if r.CorruptReads == 0 {
					t.Errorf("%s: corruption injected but the manager saw no corrupt read", mode)
				}
				// An injected EIO is an unreadable vector, which only a
				// recompute answers: there is no retry to absorb it.
				if r.Faults.ReadErrs > 0 && r.Recoveries == 0 {
					t.Errorf("%s: %d EIOs injected but the engine recovered nothing", mode, r.Faults.ReadErrs)
				}
				if r.CorruptReads > 0 && r.Recoveries == 0 {
					t.Errorf("%s: corruption detected but the engine recovered nothing", mode)
				}
				if r.ExtraNewviews < 0 {
					t.Errorf("%s: faulted run did FEWER newviews than clean: %d", mode, r.ExtraNewviews)
				}
			}
		})
	}

	var buf bytes.Buffer
	rows := []RecoveryRow{{Async: true, LnL: -123.45, Recoveries: 2}}
	WriteRecoveryTable(&buf, rows, RecoveryConfig{})
	for _, want := range []string{"mode", "eio-r", "torn", "recovered", "lnL", "async"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("recovery table missing %q:\n%s", want, buf.String())
		}
	}
}
