package experiments

import (
	"math"
	"strings"
	"testing"
)

// TestKernelAblationSmall runs the ablation at toy scale: the run itself
// enforces bit-identical likelihoods between kernel modes, so a non-nil
// result already certifies exactness; the test checks the bookkeeping.
func TestKernelAblationSmall(t *testing.T) {
	cfg := KernelAblationConfig{Taxa: 12, Sites: 300, Seed: 5, Traversals: 2}
	res, err := RunKernelAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("want 3 phases, got %d", len(res.Rows))
	}
	if res.Kernel != "dna4" {
		t.Fatalf("DNA dataset must select the dna4 kernels, got %q", res.Kernel)
	}
	if res.PCacheHits == 0 {
		t.Error("repeated traversals must produce P-cache hits")
	}
	for _, r := range res.Rows {
		if math.IsNaN(r.LnL) || math.IsInf(r.LnL, 0) || r.LnL >= 0 {
			t.Errorf("phase %s: implausible lnL %v", r.Phase, r.LnL)
		}
		if r.GenericWall <= 0 || r.AutoWall <= 0 {
			t.Errorf("phase %s: missing timings %v / %v", r.Phase, r.GenericWall, r.AutoWall)
		}
	}
	var sb strings.Builder
	WriteKernelAblationTable(&sb, res, cfg)
	for _, want := range []string{"newview", "evaluate", "deriv", "P cache", "dna4"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("table missing %q:\n%s", want, sb.String())
		}
	}
}

// TestRunKernelAblationAA runs the protein kernel ablation at toy scale.
func TestRunKernelAblationAA(t *testing.T) {
	cfg := KernelAblationConfig{Taxa: 12, Sites: 120, Seed: 5, Traversals: 2, AA: true}
	res, err := RunKernelAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kernel != "aa20" {
		t.Fatalf("protein ablation ran kernel %q, want aa20", res.Kernel)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("want 3 phase rows, got %d", len(res.Rows))
	}
	var sb strings.Builder
	WriteKernelAblationTable(&sb, res, cfg)
	if !strings.Contains(sb.String(), "protein") || !strings.Contains(sb.String(), "aa20") {
		t.Fatalf("table must name the protein dataset and kernel:\n%s", sb.String())
	}
}
