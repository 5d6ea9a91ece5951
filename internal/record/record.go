// Package record is the in-band codec for the length of a stored
// ancestral vector.
//
// An inner vector's slot holds one block per site class, in class order
// (plf, "Site classes and the vector layout"), and nothing past the last
// block is ever read. So the store record of a vector is that prefix:
// the out-of-core manager writes it at eviction and reads exactly it
// back. The engine knows the length and the manager does not, and the
// only thing that passes between them is the slot itself. So the engine
// stamps the length into the slot's last word, which a prefix never
// reaches, and the manager decodes it to settle or write back the record.
//
// The marker is a float64 NaN. A full vector carries data in that word,
// a finite likelihood entry, which can never equal it. So a full vector
// never decodes as a prefix.
package record

import "math"

// The marker word: high half 0x7FF8_0000 | n>>22 (a quiet float64 NaN),
// low half 0x7FC0_0000 | n&(2²²−1), so lengths below 2⁴¹ words fit.
const (
	tag     = 0x7FF8_0000_7FC0_0000
	tagMask = 0xFFF8_0000_FFC0_0000
	loBits  = 22
	loMask  = 1<<loBits - 1
	hiMask  = 1<<19 - 1
)

// Stamp marks v as a record of its first n words by writing the
// marker into v's last word. It requires 0 < n < len(v).
func Stamp(v []float64, n int) {
	u := uint64(n)
	v[len(v)-1] = math.Float64frombits(tag | (u>>loBits)<<32 | u&loMask)
}

// Len returns the length of the record v holds: the n of a Stamp, or
// len(v) when v's last word is not a marker (a full vector).
func Len(v []float64) int {
	if n := decode(v[len(v)-1]); n > 0 && n < len(v) {
		return n
	}
	return len(v)
}

// decode returns the length a marker word carries, 0 for any other word.
func decode(x float64) int {
	w := math.Float64bits(x)
	if w&tagMask != tag {
		return 0
	}
	return int((w>>32)&hiMask<<loBits | w&loMask)
}
