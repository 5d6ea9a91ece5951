package experiments

import (
	"strings"
	"testing"
)

// TestBatchingAblation is the tentpole's throughput acceptance: N ≥ 8
// concurrent requests batched as they queue (the cold first alone, the
// rest behind it) must beat N independent fresh passes in engine
// execution time, at bit-identical likelihoods. The speedup bound is deliberately loose (the mechanism
// saves N-1 full traversals, so the real ratio is far higher); the
// bit-identity check is exact.
func TestBatchingAblation(t *testing.T) {
	res, err := RunBatchingAblation(BatchingAblationConfig{
		Taxa: 48, Sites: 300, Seed: 11, Requests: 8,
		DataDir: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("RunBatchingAblation: %v", err)
	}
	if res.Requests != 8 {
		t.Fatalf("requests = %d", res.Requests)
	}
	if res.LnLBits == "" {
		t.Fatal("no shared lnL bit pattern recorded")
	}
	if res.CoalescedBatches >= res.Requests {
		t.Errorf("no coalescing: %d batches for %d concurrent requests", res.CoalescedBatches, res.Requests)
	}
	if res.Speedup <= 1.2 {
		t.Errorf("coalescing speedup %.2fx, want > 1.2x (independent %v vs coalesced %v over %d batches)",
			res.Speedup, res.IndependentExec, res.CoalescedExec, res.CoalescedBatches)
	}

	var sb strings.Builder
	WriteBatchingTable(&sb, res)
	out := sb.String()
	if !strings.Contains(out, "| independent | 8 | 8 |") || !strings.Contains(out, "Speedup:") {
		t.Errorf("table malformed:\n%s", out)
	}
}
