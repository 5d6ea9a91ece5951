package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// TestFaultRecoveryEquivalence is the tentpole's acceptance test: a
// workload over a FaultStore injecting read EIO, torn writes and bit
// flips under the shipped plan (faultPlan) must finish with the
// bit-identical final log-likelihood of a fault-free run
// (RunRecoveryAblation enforces the equality internally and errors out
// on divergence). The CI soak runs this with
// -count=5; the seed loop below varies the fault sequence within each
// run as well.
func TestFaultRecoveryEquivalence(t *testing.T) {
	for _, seed := range []int64{5, 23, 71} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			// Three rounds are enough that every seed draws a read EIO
			// under the shared plan: the arm holds f·n slots and reads
			// little.
			cfg := RecoveryConfig{Taxa: 24, Sites: 64, Seed: seed, Rounds: 3}
			r, err := RunRecoveryAblation(cfg, nil)
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

// TestRunTimelineEmitsValidChromeTrace drives the recovery ablation
// with a trace writer: the faulted arm's trace must be valid Chrome
// JSON with the compute and writer lanes, and must show a recovery.
func TestRunTimelineEmitsValidChromeTrace(t *testing.T) {
	var buf bytes.Buffer
	res, err := RunRecoveryAblation(RecoveryConfig{Taxa: 24, Sites: 64, Seed: 5, Rounds: 2}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Spans == 0 {
		t.Fatal("the faulted run recorded no spans")
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace JSON holds no events")
	}
	// The run must show both compute-lane and worker-lane activity, and
	// a recovery on the compute lane.
	lanes, recoveries := map[float64]bool{}, 0
	for _, e := range doc.TraceEvents {
		tid, ok := e["tid"].(float64)
		if ok {
			lanes[tid] = true
		}
		if e["ph"] == "X" && e["name"] == "plf.recovery" && ok && tid == 0 {
			recoveries++
		}
	}
	if !lanes[0] || len(lanes) < 2 {
		t.Errorf("expected compute + worker lanes, got %v", lanes)
	}
	if recoveries == 0 || res.Recoveries == 0 {
		t.Errorf("the trace holds %d plf.recovery events and the run counted %d recoveries; want both > 0",
			recoveries, res.Recoveries)
	}
	if res.Snapshot == nil || res.Snapshot.Counters["plf.newviews"] == 0 {
		t.Error("registry snapshot missing plf.newviews")
	}
}
