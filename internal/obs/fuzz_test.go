package obs

import "testing"

// The traceparent and X-OOC-Cost headers arrive from outside the
// process (any HTTP client, any daemon reply), so their parsers are
// fuzzed. Both owe the same property: never panic, and whatever they
// accept survives a round trip through the matching formatter. The
// committed corpora under testdata/fuzz hold the edge cases.

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

func FuzzParseCostHeader(f *testing.F) {
	f.Add(Cost{VectorsFaulted: 3, RemoteGets: 2, BytesRemote: 1 << 20, Recomputes: 1, WaitMicros: 40}.Header())
	f.Fuzz(func(t *testing.T, v string) {
		c, ok := ParseCostHeader(v)
		if !ok {
			return
		}
		h := c.Header()
		c2, ok := ParseCostHeader(h)
		if !ok || c2 != c {
			t.Errorf("%q parsed as %+v, but its formatted form %q parsed as %+v (ok=%v)", v, c, h, c2, ok)
		}
	})
}
