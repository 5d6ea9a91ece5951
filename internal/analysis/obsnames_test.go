package analysis

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"oocphylo/internal/obs"
	"oocphylo/internal/ooc/remote"
)

var updateNames = flag.Bool("update", false, "rewrite testdata/registry_names.txt from this run")

// TestOutOfCoreRegistryNames pins what an instrumented out-of-core run
// over a remote stack exports: every registry name, against
// testdata/registry_names.txt, and every value under ooc., pipe. and
// tier., against the manager's and the tier's own Stats, which must
// read the same counts the registry does.
func TestOutOfCoreRegistryNames(t *testing.T) {
	spec := testSpec(t, 24, 300, 11)
	_, pats, err := Load(spec)
	if err != nil {
		t.Fatal(err)
	}
	in, err := Build(context.Background(), spec, pats)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Size(spec, in)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := remote.NewServer(remote.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	spec.MemLimit = full.Need / 3
	sz, err := Size(spec, in)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	opts := Options{Registry: reg}
	opts.Stack.URL = srv.ObjectURL("obj")
	opts.Stack.CacheBytes = 2 * sz.VecBytes
	r, err := Open(context.Background(), spec, opts, in, sz, sz.Quota)
	if err != nil {
		t.Fatal(err)
	}
	e := r.Engine
	if err := e.FullTraversal(e.T.Edges[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := e.LogLikelihoodAt(e.T.Edges[len(e.T.Edges)/2]); err != nil {
		t.Fatal(err)
	}
	// Close drains the writer, so no count moves past this point.
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()

	var names []string
	for kind, m := range map[string][]string{
		"counter":     keys(snap.Counters),
		"gauge":       keys(snap.Gauges),
		"float_gauge": keys(snap.FloatGauges),
		"histogram":   keys(snap.Histograms),
		"info":        keys(snap.Info),
	} {
		for _, name := range m {
			names = append(names, kind+" "+name)
		}
	}
	sort.Strings(names)
	got := strings.Join(names, "\n") + "\n"
	golden := filepath.Join("testdata", "registry_names.txt")
	if *updateNames {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("registry names moved from %s:\ngot:\n%swant:\n%s", golden, got, want)
	}

	st, ps, rs := r.Manager.Stats(), r.Manager.PipelineStats(), r.Manager.ResizeStats()
	ts := r.Stack.Tier.Stats()
	if st.Misses == 0 || ps.WritesQueued == 0 || ts.RemoteReads == 0 || ts.RemoteWrites == 0 {
		t.Fatalf("the run never went out of core through the tier: %+v %+v %+v", st, ps, ts)
	}
	want64 := map[string]int64{
		"counter ooc.requests":          st.Requests,
		"counter ooc.hits":              st.Hits,
		"counter ooc.misses":            st.Misses,
		"counter ooc.reads":             st.Reads,
		"counter ooc.skipped_reads":     st.SkippedReads,
		"counter ooc.writes":            st.Writes,
		"counter ooc.skipped_writes":    st.SkippedWrites,
		"counter ooc.bytes_read":        st.BytesRead,
		"counter ooc.bytes_written":     st.BytesWritten,
		"counter ooc.corrupt_reads":     ps.CorruptReads,
		"counter ooc.resize_grows":      rs.Grows,
		"counter ooc.resize_shrinks":    rs.Shrinks,
		"counter ooc.resize_evictions":  rs.Evictions,
		"counter pipe.writes_queued":    ps.WritesQueued,
		"counter pipe.write_queue_hits": ps.WriteQueueHits,
		"counter pipe.overlapped_bytes": ps.OverlappedBytes,
		"counter pipe.queue_depth_max":  ps.QueueDepthMax,
		// No Flush ran, so every write-back considered was an eviction.
		"counter ooc.evictions_" + strings.ToLower(r.Strategy.Name()): st.Writes + st.SkippedWrites,
		"gauge ooc.slots":            int64(r.Manager.Slots()),
		"gauge pipe.queue_depth":     0,
		"gauge_max pipe.queue_depth": ps.QueueDepthMax,

		"counter tier.cache_hits":             ts.CacheHits,
		"counter tier.cache_misses":           ts.CacheMisses,
		"counter tier.remote_reads":           ts.RemoteReads,
		"counter tier.remote_writes":          ts.RemoteWrites,
		"counter tier.remote_vectors_read":    ts.RemoteVectorsRead,
		"counter tier.remote_vectors_written": ts.RemoteVectorsWritten,
		"counter tier.bytes_from_cache":       ts.BytesFromCache,
		"counter tier.bytes_fetched":          ts.BytesFetched,
		"counter tier.bytes_pushed":           ts.BytesPushed,
		"counter tier.evictions":              ts.Evictions,
		"counter tier.dirty_writebacks":       ts.DirtyWritebacks,
		"counter tier.remote_errors":          ts.RemoteErrors,
		"counter tier.remote_retries":         ts.RemoteRetries,
		"counter tier.breaker_opens":          ts.BreakerOpens,
		"counter tier.short_circuits":         ts.ShortCircuits,
		"gauge tier.overflow":                 ts.Overflow,
		"gauge tier.breaker_state":            int64(r.Stack.Tier.Breaker().State()),
		"gauge tier.degraded":                 b2i(ts.Degraded),

		// Histogram counts: one observation per fault-in, per
		// write-back and per remote request (no request failed).
		"histogram ooc.fault_in_seconds":    st.Misses,
		"histogram pipe.write_back_seconds": ps.WritesQueued,
		"histogram tier.remote_seconds":     ts.RemoteReads + ts.RemoteWrites,
	}
	wantFloat := map[string]float64{
		"float_gauge pipe.stall_seconds":       ps.StallTime.Seconds(),
		"float_gauge pipe.buffer_wait_seconds": ps.BufferWait.Seconds(),
	}
	checked := map[string]bool{}
	check := func(name string, got int64) {
		w, ok := want64[name]
		if !ok {
			t.Errorf("%s = %d has no Stats field to compare with", name, got)
			return
		}
		checked[name] = true
		if got != w {
			t.Errorf("%s = %d, its Stats field says %d", name, got, w)
		}
	}
	for name, v := range snap.Counters {
		if ours(name) {
			check("counter "+name, v)
		}
	}
	for name, v := range snap.Gauges {
		if ours(name) {
			check("gauge "+name, v.Value)
			if name == "pipe.queue_depth" {
				check("gauge_max "+name, v.Max)
			}
		}
	}
	for name, h := range snap.Histograms {
		if ours(name) {
			check("histogram "+name, h.Count)
		}
	}
	for name, v := range snap.FloatGauges {
		if !ours(name) {
			continue
		}
		w, ok := wantFloat["float_gauge "+name]
		if !ok {
			t.Errorf("%s = %g has no Stats field to compare with", name, v)
			continue
		}
		checked["float_gauge "+name] = true
		if v != w {
			t.Errorf("%s = %g, its Stats field says %g", name, v, w)
		}
	}
	for name := range want64 {
		if !checked[name] {
			t.Errorf("%s is not exported", name)
		}
	}
	for name := range wantFloat {
		if !checked[name] {
			t.Errorf("%s is not exported", name)
		}
	}
}

// ours reports whether name is an out-of-core layer's: the manager's,
// its pipeline's or the tier's.
func ours(name string) bool {
	for _, p := range []string{"ooc.", "pipe.", "tier."} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
