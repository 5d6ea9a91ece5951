package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"oocphylo/internal/ooc"
)

// TestFaultRecoveryEquivalence is the tentpole's acceptance test: a
// workload over a FaultStore injecting read EIO, torn writes and
// bit flips must finish with the bit-identical final log-likelihood of
// a fault-free run (RunRecoveryAblation enforces the equality
// internally and errors out on divergence). The CI soak runs this with
// -count=5; the seed loop below varies the fault sequence within each
// run as well.
func TestFaultRecoveryEquivalence(t *testing.T) {
	for _, seed := range []int64{5, 23, 71} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			// PReadErr and three traversals are enough that every seed
			// draws a read EIO: the arm holds f·n slots and reads little.
			cfg := RecoveryConfig{
				Taxa: 24, Sites: 64, Seed: seed, Traversals: 3,
				Faults: ooc.FaultConfig{
					Seed:     seed * 131,
					PReadErr: 0.20, MaxReadErrs: 6,
					PTornWrite: 0.10, MaxTornWrites: 4,
					PBitFlip: 0.25, MaxBitFlips: 4,
				},
			}
			r, err := RunRecoveryAblation(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// The acceptance criterion names all three fault kinds: a die
			// depends on its vector's own calls, not on the writer's
			// timing.
			if r.Faults.ReadErrs == 0 {
				t.Errorf("no read EIO injected: %+v", r.Faults)
			}
			if r.Faults.TornWrites == 0 {
				t.Errorf("no torn write injected: %+v", r.Faults)
			}
			if r.Faults.BitFlips == 0 {
				t.Errorf("no bit flip injected: %+v", r.Faults)
			}
			if r.CorruptReads == 0 {
				t.Error("corruption injected but the manager saw no corrupt read")
			}
			// An injected EIO is an unreadable vector, which only a
			// recompute answers: there is no retry to absorb it.
			if r.Faults.ReadErrs > 0 && r.Recoveries == 0 {
				t.Errorf("%d EIOs injected but the engine recovered nothing", r.Faults.ReadErrs)
			}
			if r.CorruptReads > 0 && r.Recoveries == 0 {
				t.Error("corruption detected but the engine recovered nothing")
			}
			if r.ExtraNewviews < 0 {
				t.Errorf("faulted run did FEWER newviews than clean: %d", r.ExtraNewviews)
			}
		})
	}

	var buf bytes.Buffer
	WriteRecoveryTable(&buf, RecoveryRow{LnL: -123.45, Recoveries: 2}, RecoveryConfig{})
	for _, want := range []string{"eio-r", "torn", "recovered", "lnL"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("recovery table missing %q:\n%s", want, buf.String())
		}
	}
}
