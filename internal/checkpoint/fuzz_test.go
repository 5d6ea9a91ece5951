package checkpoint

import (
	"encoding/json"
	"testing"
)

// A checkpoint is outside input: -resume reads one, and a daemon
// revives every parked .ckpt file under its data directory. Decoding
// and restoring arbitrary bytes must never panic; rejection is fine.
// The committed corpus under testdata/fuzz holds the edge cases.
func FuzzCheckpointRestore(f *testing.F) {
	f.Add([]byte(`{"version":2,"newick":"(a:0.1,b:0.2,c:0.3);","states":4,"freqs":[0.25,0.25,0.25,0.25],"cats":4,"alpha":0.5,"lnl":-12.5,"round":3}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var st State
		if err := json.Unmarshal(data, &st); err != nil {
			return
		}
		_, _, _ = st.Restore()
	})
}
