package experiments

import "testing"

func TestRunObsOverheadBitIdentical(t *testing.T) {
	res, err := RunObsOverhead(16, 64, 1, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.LnLOff != res.LnLOn {
		t.Fatalf("lnL differs: off %v on %v", res.LnLOff, res.LnLOn)
	}
	if res.LnLOff != res.LnLSpans {
		t.Fatalf("lnL differs: off %v spans %v", res.LnLOff, res.LnLSpans)
	}
	if res.OffSeconds <= 0 || res.OnSeconds <= 0 || res.SpansSeconds <= 0 {
		t.Fatalf("non-positive wall times: %+v", res)
	}
	if res.SpanCount == 0 {
		t.Fatal("span-traced arm recorded no spans")
	}
}
