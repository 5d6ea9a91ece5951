package iosim

import (
	"fmt"
	"testing"
	"time"
)

func TestChaosPartitionSchedule(t *testing.T) {
	// Every=3, For=2: requests 1-3 healthy, 4-5 partitioned, repeating.
	c := NewChaos(ChaosConfig{PartitionEvery: 3, PartitionFor: 2})
	var got []bool
	for i := 0; i < 10; i++ {
		f, _ := c.Next("GET", "o", "")
		got = append(got, f == FaultDrop)
	}
	want := []bool{false, false, false, true, true, false, false, false, true, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("request %d partitioned=%v, want %v (schedule %v)", i+1, got[i], want[i], got)
		}
	}
	if s := c.Stats(); s.Partitioned != 4 || s.Requests != 10 {
		t.Errorf("stats = %+v, want 4 partitioned of 10", s)
	}
}

func TestChaosManualPartition(t *testing.T) {
	c := NewChaos(ChaosConfig{})
	if f, _ := c.Next("GET", "o", ""); f != FaultNone {
		t.Fatalf("zero-probability chaos injected %v", f)
	}
	c.SetPartition(true)
	if !c.Partitioned() {
		t.Fatal("Partitioned() false after SetPartition(true)")
	}
	for i := 0; i < 3; i++ {
		if f, _ := c.Next("GET", "o", ""); f != FaultDrop {
			t.Fatalf("request %d during partition = %v, want drop", i, f)
		}
	}
	c.SetPartition(false)
	if f, _ := c.Next("GET", "o", ""); f != FaultNone {
		t.Fatalf("request after partition lifted = %v, want none", f)
	}
	if s := c.Stats(); s.Partitioned != 3 {
		t.Errorf("Partitioned = %d, want 3", s.Partitioned)
	}
}

func TestChaosDisableEnable(t *testing.T) {
	c := NewChaos(ChaosConfig{DropProb: 1})
	if f, _ := c.Next("GET", "o", ""); f != FaultDrop {
		t.Fatal("DropProb=1 did not drop")
	}
	c.SetPartition(true)
	c.Disable() // pauses injection AND lifts the manual partition
	if c.Partitioned() {
		t.Error("Disable did not lift the manual partition")
	}
	for i := 0; i < 3; i++ {
		if f, _ := c.Next("GET", "o", ""); f != FaultNone {
			t.Fatalf("disabled chaos injected %v", f)
		}
	}
	c.Enable()
	if f, _ := c.Next("GET", "o", ""); f != FaultDrop {
		t.Fatal("Enable did not re-arm injection")
	}
}

func TestChaosMaxFaultsCap(t *testing.T) {
	c := NewChaos(ChaosConfig{DropProb: 1, MaxFaults: 3})
	drops := 0
	for i := 0; i < 10; i++ {
		if f, _ := c.Next("GET", "o", ""); f == FaultDrop {
			drops++
		}
	}
	if drops != 3 {
		t.Errorf("injected %d faults, MaxFaults=3", drops)
	}
	// Partitions are not subject to the cap.
	c.SetPartition(true)
	if f, _ := c.Next("GET", "o", ""); f != FaultDrop {
		t.Error("partition suppressed by MaxFaults")
	}
}

func TestChaosStallDuration(t *testing.T) {
	c := NewChaos(ChaosConfig{StallProb: 1, Stall: 123 * time.Millisecond})
	f, d := c.Next("GET", "o", "")
	if f != FaultStall || d != 123*time.Millisecond {
		t.Errorf("Next() = (%v, %v), want stall of 123ms", f, d)
	}
	// The default stall is non-zero so FaultStall always means a delay.
	c2 := NewChaos(ChaosConfig{StallProb: 1})
	if _, d := c2.Next("GET", "o", ""); d <= 0 {
		t.Errorf("default stall = %v, want > 0", d)
	}
}

func TestChaosProbabilityOrder(t *testing.T) {
	// The fault kinds partition one uniform draw; with probabilities
	// summing to 1 every request yields a fault, with the observed mix
	// deterministic per seed.
	c := NewChaos(ChaosConfig{
		Seed: 17, DropProb: 0.2, StallProb: 0.2, TruncateProb: 0.2,
		ErrorProb: 0.2, CorruptProb: 0.2, Stall: time.Nanosecond,
	})
	for i := 0; i < 200; i++ {
		if f, _ := c.Next("GET", "o", ""); f == FaultNone {
			t.Fatalf("request %d uninjected with probabilities summing to 1", i)
		}
	}
	s := c.Stats()
	total := s.Drops + s.Stalls + s.Truncations + s.Errors + s.Corruptions
	if total != 200 {
		t.Errorf("fault counters sum to %d, want 200: %+v", total, s)
	}
	for name, n := range map[string]int64{
		"drops": s.Drops, "stalls": s.Stalls, "truncations": s.Truncations,
		"errors": s.Errors, "corruptions": s.Corruptions,
	} {
		if n == 0 {
			t.Errorf("no %s in 200 requests at p=0.2 each", name)
		}
	}
}

// TestChaosDiceFollowRequestHistory: a request's verdict is a die keyed
// by its method, object and byte range and that key's own ordinal, so
// the same per-key histories draw the same faults in any global order —
// how a run's GETs (the compute thread) and PUTs (the writer)
// interleave moves nothing. Only GETs draw truncate and corrupt, and a
// cap counts one method's faults of one kind, so with a cap that binds,
// reordering the PUTs around the same GETs still moves no GET verdict.
func TestChaosDiceFollowRequestHistory(t *testing.T) {
	const keys, calls = 6, 20
	type req struct {
		method, span string
		ord          int
	}
	var byKey, interleaved, gets []req
	for _, method := range []string{"GET", "PUT"} {
		for k := 0; k < keys; k++ {
			span := fmt.Sprintf("bytes=%d-%d", k*64, k*64+63)
			if method == "PUT" {
				span = fmt.Sprintf("bytes %d-%d/*", k*64, k*64+63)
			}
			for c := 0; c < calls; c++ {
				byKey = append(byKey, req{method, span, c})
			}
		}
	}
	// The same requests round-robin over the keys, PUTs first and the
	// keys reversed.
	for c := 0; c < calls; c++ {
		for i := len(byKey) - calls + c; i >= 0; i -= calls {
			interleaved = append(interleaved, byKey[i])
		}
	}
	for _, r := range byKey {
		if r.method == "GET" {
			gets = append(gets, r)
		}
	}
	run := func(cfg ChaosConfig, order []req) map[req]Fault {
		c := NewChaos(cfg)
		seen := make(map[req]Fault)
		for _, r := range order {
			seen[r], _ = c.Next(r.method, "vecs", r.span)
		}
		return seen
	}
	same := func(name string, a, b map[req]Fault, only string) {
		t.Helper()
		for r, f := range a {
			if (only == "" || r.method == only) && b[r] != f {
				t.Errorf("%s: %s %s #%d drew %v in one order, %v in the other", name, r.method, r.span, r.ord, f, b[r])
			}
		}
	}

	mix := ChaosConfig{Seed: 5, DropProb: 0.1, StallProb: 0.1, TruncateProb: 0.1,
		ErrorProb: 0.1, CorruptProb: 0.1, Stall: time.Nanosecond}
	a, b := run(mix, byKey), run(mix, interleaved)
	same("uncapped", a, b, "")
	kinds := make(map[Fault]bool)
	for r, f := range a {
		kinds[f] = true
		if r.method != "GET" && (f == FaultTruncate || f == FaultCorrupt) {
			t.Errorf("%s %s #%d drew %v, which only a GET may", r.method, r.span, r.ord, f)
		}
	}
	for _, f := range []Fault{FaultDrop, FaultStall, FaultTruncate, FaultError, FaultCorrupt} {
		if !kinds[f] {
			t.Errorf("no %v drawn in %d requests", f, len(byKey))
		}
	}

	// A cap that binds, the GETs in one order, the PUTs either after
	// them or one before each.
	var puts, zipped []req
	for _, r := range interleaved {
		if r.method == "PUT" {
			puts = append(puts, r)
		}
	}
	for i, r := range gets {
		zipped = append(zipped, puts[i], r)
	}
	capped := ChaosConfig{Seed: 3, CorruptProb: 0.3, DropProb: 0.2, MaxFaults: 4}
	c := run(capped, byKey)
	same("capped", c, run(capped, zipped), "GET")
	var corrupt int64
	for _, f := range c {
		if f == FaultCorrupt {
			corrupt++
		}
	}
	if corrupt != capped.MaxFaults {
		t.Errorf("%d corrupt GETs under a cap of %d", corrupt, capped.MaxFaults)
	}
}
