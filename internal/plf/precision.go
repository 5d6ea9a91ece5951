package plf

import (
	"fmt"
	"math"
	"unsafe"

	"oocphylo/internal/model"
)

// Compute precision. The engine can run its entire numeric state —
// ancestral vectors, transition matrices, tip tables, derivative sum
// tables — in either float64 (the default) or float32. Single precision
// halves the paper's central cost: every out-of-core page (ancestral
// vector) occupies half the RAM-slot bytes and half the store
// bandwidth, which doubles the dataset size a fixed -L limit can hold.
//
// The VectorProvider interface stays float64-typed: providers hand out
// "carrier" pages of float64s and never inspect the elements, so the
// whole ooc stack (slot manager, async pipeline, file stores, CRC-32C
// checksums, live resizing) works unchanged at either precision. In f32
// mode a logical vector of L float32s travels in a carrier of
// ceil(L/2) float64s — the same bytes, reinterpreted — and the engine
// views each carrier through vecView. A file store sized on the
// carrier geometry therefore persists exactly 4·L (+4 if L is odd)
// bytes per vector: the halving the -precision flag promises.
//
// Determinism contract per precision (the paper's §4.1 exactness
// criterion, applied mode-wise): within one precision, results are
// bit-identical across kernel sets, worker counts, providers and
// sync/async I/O — the same guarantees the float64 path has always had.
// Across precisions results differ by rounding; the accuracy-budget
// tests quantify the gap.

// Precision names accepted by NewWithPrecision and the oocraxml
// -precision flag.
const (
	// PrecisionF64 is full double precision, the default and the only
	// mode whose results are comparable bit-for-bit with historical runs.
	PrecisionF64 = "f64"
	// PrecisionF32 is the end-to-end single-precision mode.
	PrecisionF32 = "f32"
)

// Float constrains the compute element type.
type Float interface {
	float32 | float64
}

// Float32 scaling constants. The float64 path rescales by 2^±256,
// which float32 cannot represent (max exponent 127). The f32 path uses
// 2^±64 — the same fraction (one quarter) of the exponent range the
// f64 scheme uses, giving 64 octaves of headroom above the threshold
// before overflow and 85 below it before subnormal flush.
const (
	scalingExponent32 = 64
	logScaleFactor32  = scalingExponent32 * 0.6931471805599453 // ln(2^64)
)

var (
	minLikelihood32 = float32(math.Ldexp(1, -scalingExponent32)) // 2^-64
	scaleFactor32   = float32(math.Ldexp(1, scalingExponent32))  // 2^64

	// flushDenormal32 is the f32 store-side flush threshold: vector
	// entries below 2^-87 = minLikelihood32 · 2^-23 sit more than a full
	// float32 mantissa below the smallest per-pattern maximum the scaler
	// permits, so they can never shift a site likelihood at f32
	// resolution — but once they reach the hardware denormal range
	// (under 2^-126) every multiply touching them costs a microcode
	// assist. Flushing them to zero at the newview store keeps the f32
	// kernels on the fast path; it is applied identically by the generic
	// and specialised kernel sets, preserving within-mode bit-identity.
	flushDenormal32 = float32(math.Ldexp(1, -scalingExponent32-23)) // 2^-87
)

// CarrierLength returns the per-vector provider payload length in
// float64s for an engine at the given precision — the value a
// provider's VectorLen() must match. For f64 this is VectorLength; for
// f32 it is halved (rounded up), since two float32 elements ride in
// each float64 carrier slot.
func CarrierLength(m *model.Model, nPat int, precision string) (int, error) {
	logical := VectorLength(m, nPat)
	switch precision {
	case "", PrecisionF64:
		return logical, nil
	case PrecisionF32:
		return (logical + 1) / 2, nil
	}
	return 0, fmt.Errorf("plf: unknown precision %q (want %q or %q)", precision, PrecisionF64, PrecisionF32)
}

// vecView reinterprets a provider carrier as the compute element type:
// the identity for float64, an unsafe.Slice over the same bytes for
// float32. The view aliases the carrier, so kernel writes land directly
// in the provider's slot; a carrier with an odd logical length keeps
// its final 4 padding bytes unread and unwritten.
func vecView[F Float](carrier []float64, logical int) []F {
	if v, ok := any(carrier).([]F); ok {
		return v
	}
	f32 := unsafe.Slice((*float32)(unsafe.Pointer(&carrier[0])), logical)
	return any(f32).([]F)
}

// asF returns src in precision F: aliased unchanged when F is float64
// (so the f64 path reads the model's own slices, exactly as before),
// converted into dst — grown as needed — otherwise.
func asF[F Float](dst []F, src []float64) []F {
	if s, ok := any(src).([]F); ok {
		return s
	}
	if cap(dst) < len(src) {
		dst = make([]F, len(src))
	}
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = F(v)
	}
	return dst
}

// isF64 reports whether F is float64.
func isF64[F Float]() bool {
	var z F
	_, ok := any(z).(float64)
	return ok
}
