package ooc

import (
	"testing"
	"time"

	"oocphylo/internal/iosim"
)

// capStore is an innermost store implementing the optional
// capabilities with recognisable answers.
type capStore struct {
	*MemStore
}

func (c *capStore) FetchCost(int) (time.Duration, bool) { return 7 * time.Millisecond, true }
func (c *capStore) MemOverheadBytes() int64             { return 1000 }
func (c *capStore) Degraded() bool                      { return true }

// TestCapabilitiesCrossWrappers is the wrapper × capability table: every
// wrapper store must let FetchCost, MemOverheadBytes and Degraded of
// the store beneath it through, adding nothing of its own. NewChecksumStore, which the
// benchmark harness still calls, adds no layer at all. MemOverheadBytes is the row runs
// depend on: a wrapper that hid a tier's heap would let -L overcommit. FetchCost and Degraded are
// forwarded by the benchmark harness's traced store.
func TestCapabilitiesCrossWrappers(t *testing.T) {
	const n, vecLen = 4, 3
	checksum := func(inner Store) Store {
		cs, err := NewChecksumStore(inner, "", n, vecLen)
		if err != nil {
			t.Fatal(err)
		}
		return cs
	}
	var clock iosim.Clock
	wrappers := []struct {
		name string
		wrap func(Store) Store
	}{
		{"Sim", func(s Store) Store { return NewSimStore(s, iosim.Device{}, &clock) }},
		{"Fault", func(s Store) Store { return NewFaultStore(s, FaultConfig{}) }},
		{"Checksum", checksum},
	}
	for _, w := range wrappers {
		t.Run(w.name, func(t *testing.T) {
			fake := &capStore{MemStore: NewMemStore(n, vecLen)}
			s := w.wrap(fake)
			defer s.Close()
			if d, remote := StoreFetchCost(s, 1); d != 7*time.Millisecond || !remote {
				t.Errorf("FetchCost = (%v, %v), want the inner store's (7ms, true)", d, remote)
			}
			if got := StoreMemOverhead(s); got != 1000 {
				t.Errorf("MemOverhead = %d, want the inner store's 1000", got)
			}
			if !StoreDegraded(s) {
				t.Error("Degraded did not cross the wrapper")
			}
		})
	}
}
