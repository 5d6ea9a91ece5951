package experiments

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestRunTimelineEmitsValidChromeTrace(t *testing.T) {
	var buf bytes.Buffer
	res, err := RunTimeline(TimelineConfig{Taxa: 24, Sites: 96, Rounds: 1, WithFaults: true}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Spans == 0 {
		t.Fatal("timeline run recorded no spans")
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
	// The run must show both compute-lane and worker-lane activity.
	lanes := map[float64]bool{}
	for _, e := range doc.TraceEvents {
		if tid, ok := e["tid"].(float64); ok {
			lanes[tid] = true
		}
	}
	if !lanes[0] || len(lanes) < 2 {
		t.Errorf("expected compute + worker lanes, got %v", lanes)
	}
	if res.Snapshot == nil || res.Snapshot.Counters["plf.newviews"] == 0 {
		t.Error("registry snapshot missing plf.newviews")
	}
}

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
