package remote

import (
	"math"
	"testing"
)

// rangeSeeds are header values in the forms RFC 9110 allows and the
// ways they go wrong: valid, reversed, overflowing, suffix, open-ended,
// multi-range, signed, padded.
var rangeSeeds = []string{
	"0-0", "8-15", "6-17/32", "8-15/*", "15-8", "-5", "5-", "-", "",
	"0-9223372036854775807", "9223372036854775800-9223372036854775807/*",
	"0-9223372036854775808", "99999999999999999999-1",
	"0-1,3-4", "+1-+2", "1--2", " 1-2", "1 -2", "0x1-0x2", "1_0-2_0", "a-b",
}

// checkParsedRange is the property both parsers owe the handlers: a
// header is rejected or yields 0 <= from <= to with to+1, the exclusive
// end the handlers compute, still representable.
func checkParsedRange(t *testing.T, h string, from, to int64, err error) {
	if err == nil && (from < 0 || to < from || to == math.MaxInt64) {
		t.Errorf("%q accepted as [%d, %d]", h, from, to)
	}
}

func FuzzParseRange(f *testing.F) {
	for _, s := range rangeSeeds {
		f.Add("bytes=" + s)
	}
	f.Add("bytes 1-2")
	f.Add("items=1-2")
	f.Fuzz(func(t *testing.T, h string) {
		from, to, err := parseRange(h)
		checkParsedRange(t, h, from, to, err)
	})
}

func FuzzParseContentRange(f *testing.F) {
	for _, s := range rangeSeeds {
		f.Add("bytes " + s)
	}
	f.Add("bytes=1-2")
	f.Add("bytes */32")
	f.Fuzz(func(t *testing.T, h string) {
		from, to, err := parseContentRange(h)
		checkParsedRange(t, h, from, to, err)
		if err == nil && to >= maxObjectBytes {
			t.Errorf("%q accepted: a write ending at %d is past the %d-byte object limit", h, to, int64(maxObjectBytes))
		}
	})
}
