package service

import (
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"oocphylo/internal/iosim"
	"oocphylo/internal/ooc"
	"oocphylo/internal/ooc/remote"
	"oocphylo/internal/plf"
)

// TestServiceRemoteStoreParkRevive pins the tiered-storage revive
// story: a session whose vectors live on a (latency-injected, loopback)
// object store is parked, the daemon dies, the local cache tier is
// WIPED — and a fresh daemon over the same data directory still revives
// the session bit-identically: it needs nothing of the parked store,
// every vector is recomputed.
func TestServiceRemoteStoreParkRevive(t *testing.T) {
	dir := t.TempDir()
	alnPath, vecBytes, need := writeTestAlignment(t, dir, 12, 300, 11)

	rsrv, err := remote.NewServer(remote.ServerConfig{
		Device: iosim.Device{Latency: time.Millisecond, Bandwidth: 1e9},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rsrv.Close()
	scfg := ServerConfig{
		DataDir:  dir,
		StoreURL: "remote://" + rsrv.Addr(),
	}

	srv1, err := NewServer(scfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseSession("wan", alnPath)
	cfg.MemLimit = need / 2
	if cfg.MemLimit < int64(ooc.MinSlots)*vecBytes {
		t.Fatalf("dataset too small to go out of core")
	}
	ses, err := srv1.CreateSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before, err := ses.Evaluate(EvalSpec{Edge: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv1.Close(); err != nil { // parks: checkpoint, then the tier closes
		t.Fatalf("close: %v", err)
	}
	// The object was sized at create and outlives the daemon.
	if got := rsrv.Size("wan.vec"); got <= 0 {
		t.Fatalf("remote object empty after park: %d bytes", got)
	}
	// The node loses its scratch disk: local cache tier gone. The
	// checkpoint and alignment in DataDir survive.
	if err := os.RemoveAll(filepath.Join(dir, "wan.cache")); err != nil {
		t.Fatal(err)
	}

	srv2, err := NewServer(scfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	infos := srv2.Sessions()
	if len(infos) != 1 || infos[0].State != "parked" {
		t.Fatalf("restarted daemon sessions = %+v", infos)
	}
	ses2, ok := srv2.Session("wan")
	if !ok {
		t.Fatal("session not adopted")
	}
	after, err := ses2.Evaluate(EvalSpec{Edge: 1})
	if err != nil {
		t.Fatalf("evaluate after cache loss: %v", err)
	}
	if after.LnLBits != before.LnLBits {
		t.Errorf("remote revive changed the likelihood: %s -> %s", before.LnLBits, after.LnLBits)
	}
}

// TestServiceRemoteStoreCacheBytes pins the cache sizing knob: a tiny
// CacheBytes budget forces eviction write-backs to the remote tier
// during the run, and the session still answers correctly.
func TestServiceRemoteStoreCacheBytes(t *testing.T) {
	dir := t.TempDir()
	alnPath, vecBytes, need := writeTestAlignment(t, dir, 40, 200, 19)

	rsrv, err := remote.NewServer(remote.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rsrv.Close()

	// Local reference daemon answers the same session config.
	ref, err := NewServer(ServerConfig{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	srv, err := NewServer(ServerConfig{
		DataDir:    dir,
		StoreURL:   "remote://" + rsrv.Addr(),
		CacheBytes: 4 * vecBytes, // four cached vectors: constant churn
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cfg := baseSession("tiny", alnPath)
	cfg.MemLimit = need / 4
	ses, err := srv.CreateSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ses.Evaluate(EvalSpec{Edge: 0})
	if err != nil {
		t.Fatal(err)
	}
	rses, err := ref.CreateSession(baseSession("tiny", alnPath))
	if err != nil {
		t.Fatal(err)
	}
	want, err := rses.Evaluate(EvalSpec{Edge: 0})
	if err != nil {
		t.Fatal(err)
	}
	if got.LnLBits != want.LnLBits {
		t.Errorf("starved cache changed the likelihood: %s != %s", got.LnLBits, want.LnLBits)
	}

	// Partial evaluates mostly read. A vector nobody recomputed is never
	// PUT: each newview dirties one vector, and a dirty vector is pushed
	// at most once, so bytes pushed are bounded by newviews.
	const edges = 2*40 - 3
	for i := 1; i <= 40; i++ {
		if _, err := ses.Evaluate(EvalSpec{Edge: (i * 7) % edges}); err != nil {
			t.Fatal(err)
		}
	}
	snap := ses.costSnapshot() // every reply is in: the loop goroutine is idle
	if snap.tier.BytesPushed == 0 {
		t.Error("a four-vector cache never pushed an eviction remote")
	}
	if bound := snap.eng.Newviews * vecBytes; snap.tier.BytesPushed > bound {
		t.Errorf("pushed %d bytes for %d newviews of %d bytes (bound %d): unmodified vectors were written back",
			snap.tier.BytesPushed, snap.eng.Newviews, vecBytes, bound)
	}
}

// TestServiceRemoteStoreNamespace pins the two accepted endpoint forms:
// a bare remote://host:port maps a session to <name>.vec, and an
// endpoint with one namespace segment maps it to <ns>.<name>.vec so
// several daemons can share an object server. Anything deeper fails at
// NewServer, not at the first session create.
func TestServiceRemoteStoreNamespace(t *testing.T) {
	if got := sessionObjectURL("remote://h:1", "s"); got != "remote://h:1/s.vec" {
		t.Errorf("bare endpoint: got %q", got)
	}
	if got := sessionObjectURL("remote://h:1/", "s"); got != "remote://h:1/s.vec" {
		t.Errorf("trailing slash: got %q", got)
	}
	if got := sessionObjectURL("remote://h:1/ns", "s"); got != "remote://h:1/ns.s.vec" {
		t.Errorf("namespace endpoint: got %q", got)
	}
	if _, err := NewServer(ServerConfig{DataDir: t.TempDir(), StoreURL: "remote://h:1/a/b"}); err == nil {
		t.Error("nested store path accepted; want startup error")
	}

	dir := t.TempDir()
	alnPath, _, need := writeTestAlignment(t, dir, 12, 300, 13)
	rsrv, err := remote.NewServer(remote.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rsrv.Close()
	srv, err := NewServer(ServerConfig{
		DataDir:  dir,
		StoreURL: "remote://" + rsrv.Addr() + "/plf",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cfg := baseSession("ns", alnPath)
	cfg.MemLimit = need / 2
	ses, err := srv.CreateSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ses.Evaluate(EvalSpec{Edge: 0}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if got := rsrv.Size("plf.ns.vec"); got <= 0 {
		t.Fatalf("namespaced remote object empty after park: %d bytes", got)
	}
}

// TestServiceDeleteRemovesEveryLocalFile pins session deletion against
// what the session's store stack put on local disk: before DELETE the
// session owns its alignment, its checkpoint once parked, the vector or
// cache file — no checksum sidecar, no cache index, no spill file —
// and after DELETE the data directory holds nothing of the session's —
// active or parked at the time, local file or remote store behind a
// cache tier.
func TestServiceDeleteRemovesEveryLocalFile(t *testing.T) {
	for _, medium := range []string{"local", "remote"} {
		for _, parked := range []bool{false, true} {
			medium, parked := medium, parked
			t.Run(medium+map[bool]string{false: "/active", true: "/parked"}[parked], func(t *testing.T) {
				dir := t.TempDir()
				alnPath, _, need := writeTestAlignment(t, dir, 12, 300, 31)
				scfg := ServerConfig{DataDir: filepath.Join(dir, "data")}
				if medium == "remote" {
					rsrv, err := remote.NewServer(remote.ServerConfig{})
					if err != nil {
						t.Fatal(err)
					}
					defer rsrv.Close()
					scfg.StoreURL = "remote://" + rsrv.Addr()
				}
				srv := newTestServer(t, scfg)
				cfg := baseSession("gone", alnPath)
				cfg.MemLimit = need / 2
				ses, err := srv.CreateSession(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := ses.Evaluate(EvalSpec{Edge: 1}); err != nil {
					t.Fatal(err)
				}
				if parked {
					if err := srv.ParkSession("gone"); err != nil {
						t.Fatal(err)
					}
				}
				var files []string
				filepath.WalkDir(dir, func(path string, d os.DirEntry, _ error) error {
					if rel := strings.TrimPrefix(path, dir+"/"); !d.IsDir() && rel != filepath.Base(alnPath) {
						files = append(files, rel)
					}
					return nil
				})
				want := []string{"data/gone.aln", "data/gone.vec"}
				if medium == "remote" {
					want = []string{"data/gone.aln", "data/gone.cache/cache.vec"}
				}
				if parked {
					want = append(want, "data/gone.ckpt")
					sort.Strings(want)
				}
				if !reflect.DeepEqual(files, want) {
					t.Errorf("session files = %v, want exactly %v", files, want)
				}
				if err := srv.DeleteSession("gone"); err != nil {
					t.Fatal(err)
				}
				ents, err := os.ReadDir(scfg.DataDir)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range ents {
					t.Errorf("delete left %s behind", filepath.Join(scfg.DataDir, e.Name()))
				}
			})
		}
	}
}

// TestServiceRegistryDoesNotLeak pins the daemon's registry to its live
// sessions: a revive's freshly instrumented tier replaces the parked
// incarnation's publisher instead of joining it (which kept every
// closed TieredStore reachable and polled on every scrape), and a
// deleted session takes its publishers and every svc.session.<name>.*
// name with it.
func TestServiceRegistryDoesNotLeak(t *testing.T) {
	dir := t.TempDir()
	alnPath, _, need := writeTestAlignment(t, dir, 12, 300, 17)
	rsrv, err := remote.NewServer(remote.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rsrv.Close()
	srv := newTestServer(t, ServerConfig{DataDir: filepath.Join(dir, "data"), StoreURL: "remote://" + rsrv.Addr()})
	// The registry does not export its publisher list; its length is all
	// this test needs of it.
	publishers := func() int {
		return reflect.ValueOf(srv.reg).Elem().FieldByName("publishers").Len()
	}
	idle := publishers()

	cfg := baseSession("leaky", alnPath)
	cfg.MemLimit = need / 2
	// Generic kernels keep every record full width, so half the vectors
	// fit the pool (see the root walk below).
	cfg.Kernel = plf.KernelGeneric
	ses, err := srv.CreateSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ses.Evaluate(EvalSpec{Edge: 1}); err != nil {
		t.Fatal(err)
	}
	live := publishers()
	if live != idle+2 {
		t.Fatalf("%d publishers with one remote session, want %d (session + tier)", live, idle+2)
	}
	names := func() (under []string) {
		snap := srv.reg.Snapshot()
		for _, m := range []any{snap.Counters, snap.Gauges, snap.FloatGauges, snap.Histograms, snap.Info} {
			for _, k := range reflect.ValueOf(m).MapKeys() {
				if strings.HasPrefix(k.String(), "svc.session.leaky.") {
					under = append(under, k.String())
				}
			}
		}
		sort.Strings(under)
		return under
	}
	exported := names()
	for _, want := range []string{"svc.session.leaky.ooc_requests", "svc.session.leaky.tier.cache_hits", "svc.session.leaky.tier.remote_seconds"} {
		if !slices.Contains(exported, want) {
			t.Errorf("live session does not export %s", want)
		}
	}
	for i := 0; i < 5; i++ {
		if err := srv.ParkSession("leaky"); err != nil {
			t.Fatal(err)
		}
		if _, err := ses.Evaluate(EvalSpec{Edge: 1}); err != nil {
			t.Fatal(err)
		}
		if got := publishers(); got != live {
			t.Fatalf("%d publishers after %d park/revive cycles, want %d", got, i+1, live)
		}
	}
	revived := names()
	for _, want := range exported {
		if !slices.Contains(revived, want) {
			t.Errorf("revived session no longer exports %s", want)
		}
	}
	// Walk the root across the tree: half the vectors fit the pool, so
	// whatever its exact size the pass evicts, writes back and re-reads
	// through the revived tier — and only its publisher can show that.
	for edge := 0; edge < 2*12-3; edge++ {
		if _, err := ses.Evaluate(EvalSpec{Edge: edge}); err != nil {
			t.Fatal(err)
		}
	}
	c := srv.reg.Snapshot().Counters
	if c["svc.session.leaky.tier.cache_hits"]+c["svc.session.leaky.tier.cache_misses"]+c["svc.session.leaky.tier.remote_writes"] == 0 {
		t.Error("revived tier's publisher is not the one publishing: no read or write-back counted")
	}

	if err := srv.DeleteSession("leaky"); err != nil {
		t.Fatal(err)
	}
	if got := publishers(); got != idle {
		t.Errorf("%d publishers after delete, want %d", got, idle)
	}
	if left := names(); len(left) != 0 {
		t.Errorf("delete left %d names behind, first %s", len(left), left[0])
	}
}

// TestServiceCountersSurvivePark: a session's counters are monotonic
// across park/revive. A revive opens a fresh manager and, over a
// remote, a fresh tier, whose own counts start at zero; the session's
// exported counters carry the parked incarnation's totals forward.
func TestServiceCountersSurvivePark(t *testing.T) {
	dir := t.TempDir()
	alnPath, vecBytes, need := writeTestAlignment(t, dir, 12, 300, 17)
	rsrv, err := remote.NewServer(remote.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rsrv.Close()
	for _, medium := range []string{"local", "remote"} {
		t.Run(medium, func(t *testing.T) {
			scfg := ServerConfig{DataDir: t.TempDir()}
			if medium == "remote" {
				scfg.StoreURL, scfg.CacheBytes = "remote://"+rsrv.Addr(), 4*vecBytes
			}
			srv := newTestServer(t, scfg)
			cfg := baseSession("mono", alnPath)
			cfg.MemLimit = need / 2
			cfg.Kernel = plf.KernelGeneric // full-width records: the walk evicts
			ses, err := srv.CreateSession(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for edge := 0; edge < 2*12-3; edge++ {
				if _, err := ses.Evaluate(EvalSpec{Edge: edge}); err != nil {
					t.Fatal(err)
				}
			}
			counters := func() map[string]int64 {
				under := map[string]int64{}
				for k, v := range srv.reg.Snapshot().Counters {
					if strings.HasPrefix(k, metricsPrefix("mono")) {
						under[k] = v
					}
				}
				return under
			}
			before := counters()
			if before[metricsPrefix("mono")+"ooc_requests"] == 0 {
				t.Fatal("the session never went out of core")
			}
			if medium == "remote" && before[metricsPrefix("mono")+"tier.evictions"] == 0 {
				t.Fatal("the tier never evicted")
			}
			if err := srv.ParkSession("mono"); err != nil {
				t.Fatal(err)
			}
			if _, err := ses.Evaluate(EvalSpec{Edge: 1}); err != nil { // revives
				t.Fatal(err)
			}
			after := counters()
			for name, was := range before {
				if after[name] < was {
					t.Errorf("%s went back from %d to %d across park/revive", name, was, after[name])
				}
			}
		})
	}
}

// settledGoroutines returns the process's goroutine count once it has
// stopped moving: idle HTTP keep-alive connections (which hold
// goroutines at both ends of the loopback object server) are closed,
// and the count must hold still for 50 ms. A leaked goroutine holds
// still too, and is counted.
func settledGoroutines() int {
	n, still := -1, 0
	for deadline := time.Now().Add(2 * time.Second); still < 10 && time.Now().Before(deadline); {
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		time.Sleep(5 * time.Millisecond)
		if now := runtime.NumGoroutine(); now == n {
			still++
		} else {
			n, still = now, 0
		}
	}
	return n
}

// TestServiceGoroutinesReturnToBaseline: a live in-RAM session runs
// exactly one goroutine, its loop, which batches its evaluates itself;
// a remote-backed session's goroutines (loop, pipeline — the tier
// brings none) are gone once it is deleted, and the daemon's once it
// is closed.
func TestServiceGoroutinesReturnToBaseline(t *testing.T) {
	dir := t.TempDir()
	alnPath, _, need := writeTestAlignment(t, dir, 12, 300, 17)
	rsrv, err := remote.NewServer(remote.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rsrv.Close()
	base := settledGoroutines()
	srv, err := NewServer(ServerConfig{DataDir: filepath.Join(dir, "data"), StoreURL: "remote://" + rsrv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	idle := settledGoroutines()
	session := func(name string, memLimit int64) {
		cfg := baseSession(name, alnPath)
		cfg.MemLimit = memLimit
		ses, err := srv.CreateSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ses.Evaluate(EvalSpec{Edge: 1}); err != nil {
			t.Fatal(err)
		}
	}
	session("ram", 0)
	if got := settledGoroutines() - idle; got != 1 {
		t.Errorf("a live in-RAM session runs %d goroutines, want 1 (its loop)", got)
	}
	if err := srv.DeleteSession("ram"); err != nil {
		t.Fatal(err)
	}
	session("gone", need/2)
	if live := settledGoroutines(); live <= idle {
		t.Fatalf("%d goroutines with a live session, %d without: the check below checks nothing", live, idle)
	}
	if err := srv.DeleteSession("gone"); err != nil {
		t.Fatal(err)
	}
	if got := settledGoroutines(); got > idle {
		t.Errorf("%d goroutines after DeleteSession, %d before the session", got, idle)
	}
	session("parked_by_close", need/2)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if got := settledGoroutines(); got > base {
		t.Errorf("%d goroutines after Server.Close, %d before NewServer", got, base)
	}
}
