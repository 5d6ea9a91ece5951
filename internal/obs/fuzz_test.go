package obs

import "testing"

// The traceparent header arrives from outside the process (any HTTP
// client), so its parser is fuzzed. It owes two properties: never
// panic, and whatever it accepts survives a round trip through the
// matching formatter. The committed corpus under testdata/fuzz holds
// the edge cases.

func FuzzParseTraceparent(f *testing.F) {
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Fuzz(func(t *testing.T, v string) {
		tid, sid, ok := ParseTraceparent(v)
		if !ok {
			return
		}
		h := FormatTraceparent(tid, sid)
		t2, s2, ok := ParseTraceparent(h)
		if !ok || t2 != tid || s2 != sid {
			t.Errorf("%q parsed as %s/%s, but its formatted form %q parsed as %s/%s (ok=%v)",
				v, tid, sid, h, t2, s2, ok)
		}
	})
}
