package record

import (
	"math"
	"testing"
)

// TestStampRoundTrip stamps lengths on both sides of the split between
// the marker's halves, up to the largest it carries, and decodes each.
func TestStampRoundTrip(t *testing.T) {
	v := make([]float64, 1)
	for _, n := range []int{1, 2, 1<<22 - 1, 1 << 22, 1<<22 + 1, 3 << 30, 1<<41 - 1} {
		Stamp(v, n)
		if got := decode(v[0]); got != n {
			t.Errorf("stamped %d, decoded %d", n, got)
		}
	}
	w := make([]float64, 9)
	for n := 1; n < len(w); n++ {
		Stamp(w, n)
		if got := Len(w); got != n {
			t.Errorf("9-word vector stamped %d: Len %d", n, got)
		}
	}
}

// TestLenOfFullVectors checks that words no marker is made of decode as
// a full vector: finite values, infinities, the canonical NaN, and a
// stamp whose length does not fit the vector it ends.
func TestLenOfFullVectors(t *testing.T) {
	for _, last := range []float64{0, 1, -2.5, math.SmallestNonzeroFloat64, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()} {
		v := []float64{7, 8, last}
		if got := Len(v); got != len(v) {
			t.Errorf("last word %v (%x) decodes as a %d-word record", last, math.Float64bits(last), got)
		}
	}
	v := make([]float64, 8)
	Stamp(v, 6)
	if got := Len(v[4:]); got != 4 {
		t.Errorf("a 4-word vector ending in a 6-word stamp decodes as %d", got)
	}
}
