package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"oocphylo/internal/analysis"
	"oocphylo/internal/iosim"
	"oocphylo/internal/ooc"
	"oocphylo/internal/ooc/remote"
)

// lnlBitsLine extracts the "Log likelihood bits:" line the -lnl-bits
// flag prints, for bit-for-bit comparisons across runs.
func lnlBitsLine(s string) string {
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, "Log likelihood bits:") {
			return line
		}
	}
	return ""
}

// TestRemoteStoreFlagMatchesLocal runs the same evaluate twice — local
// backing file vs -store remote:// over a latency-injected loopback
// object store — and requires bit-identical likelihoods.
func TestRemoteStoreFlagMatchesLocal(t *testing.T) {
	phy, nwk := writeTestData(t)
	rsrv, err := remote.NewServer(remote.ServerConfig{
		Device: iosim.Device{Latency: time.Millisecond, Bandwidth: 1e9},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rsrv.Close()

	local, err := capture(t, "-s", phy, "-t", nwk, "-f", "e", "-m", "JC", "-a", "0",
		"-L", "1200", "-lnl-bits")
	if err != nil {
		t.Fatal(err)
	}
	rem, err := capture(t, "-s", phy, "-t", nwk, "-f", "e", "-m", "JC", "-a", "0",
		"-L", "1200", "-lnl-bits",
		"-store", "remote://"+rsrv.Addr()+"/vecs")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rem, "remote store remote://") {
		t.Errorf("output does not report the remote store:\n%s", rem)
	}
	if lb, rb := lnlBitsLine(local), lnlBitsLine(rem); lb == "" || lb != rb {
		t.Errorf("remote store changed the likelihood:\n%q\n%q", lb, rb)
	}
	if got := rsrv.Size("vecs"); got <= 0 {
		t.Errorf("remote object empty after run: %d bytes", got)
	}
}

// TestRemoteStoreVerifiedWithoutFlag: a -store remote:// run is
// verified without a flag. Over a remote that corrupts some GETs
// it prints the clean run's likelihood bits: each corrupt GET fails the
// manager's checksum and the engine recomputes that vector.
func TestRemoteStoreVerifiedWithoutFlag(t *testing.T) {
	phy, nwk, memLimit := soakDataset(t, t.TempDir(), 24, 200)
	chaos := iosim.NewChaos(iosim.ChaosConfig{Seed: 3, CorruptProb: 0.05, MaxFaults: 6})
	rsrv, err := remote.NewServer(remote.ServerConfig{Chaos: chaos})
	if err != nil {
		t.Fatal(err)
	}
	defer rsrv.Close()
	args := []string{"-s", phy, "-t", nwk, "-f", "e", "-m", "HKY", "-a", "0.8",
		"-L", fmt.Sprint(memLimit), "-lnl-bits"}
	clean, err := capture(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := capture(t, append(args, "-stats", "-store", "remote://"+rsrv.Addr()+"/vecs", "-cache-bytes", "1")...)
	if err != nil {
		t.Fatal(err)
	}
	if cb, gb := lnlBitsLine(clean), lnlBitsLine(got); cb == "" || cb != gb {
		t.Errorf("corrupt GETs changed the likelihood:\n%q\n%q", cb, gb)
	}
	for _, line := range strings.Split(got, "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "corrupt_reads" && f[1] == "0" {
			t.Errorf("no corrupt GET reached the manager (%+v):\n%s", chaos.Stats(), got)
		}
	}
}

// TestRemoteStoreRerunOverCacheDir reruns over a persistent -cache-dir:
// the second run starts cold over what the first
// left, matches it bit-for-bit, and the directory holds the cache file
// — nothing else. A starved -cache-bytes run over the
// same object must match too.
func TestRemoteStoreRerunOverCacheDir(t *testing.T) {
	phy, nwk := writeTestData(t)
	rsrv, err := remote.NewServer(remote.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rsrv.Close()
	cacheDir := filepath.Join(t.TempDir(), "cache")
	url := "remote://" + rsrv.Addr() + "/rerun"

	args := []string{"-s", phy, "-t", nwk, "-f", "e", "-m", "JC", "-a", "0",
		"-L", "1200", "-lnl-bits",
		"-store", url, "-cache-dir", cacheDir}
	first, err := capture(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	second, err := capture(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	if fb, sb := lnlBitsLine(first), lnlBitsLine(second); fb == "" || fb != sb {
		t.Errorf("rerun changed the likelihood:\n%q\n%q", fb, sb)
	}
	ents, err := os.ReadDir(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "cache.vec" {
		t.Errorf("cache dir holds %v; want only cache.vec", ents)
	}
	starved, err := capture(t, "-s", phy, "-t", nwk, "-f", "e", "-m", "JC", "-a", "0",
		"-L", "1200", "-lnl-bits", "-store", url, "-cache-bytes", "1")
	if err != nil {
		t.Fatal(err)
	}
	if fb, sb := lnlBitsLine(first), lnlBitsLine(starved); fb != sb {
		t.Errorf("starved cache changed the likelihood:\n%q\n%q", fb, sb)
	}
}

// TestRemoteRefusedReadOneRetryBudget: the tier's RemoteRetry is the
// one retry budget a run over -store remote:// has. A read the remote
// refuses costs exactly RemoteRetry.Max+1 attempts — nothing above the
// tier re-issues it — so one refused read leaves the breaker closed,
// and the manager hands the engine an unreadable vector to recompute.
func TestRemoteRefusedReadOneRetryBudget(t *testing.T) {
	phy, nwk := writeTestData(t)
	rsrv, err := remote.NewServer(remote.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rsrv.Close()
	fs, _, sf, how := runFlags()
	if err := fs.Parse([]string{"-s", phy, "-t", nwk, "-m", "JC", "-a", "0", "-L", "1200",
		"-store", "remote://" + rsrv.Addr() + "/vecs"}); err != nil {
		t.Fatal(err)
	}
	spec := sf.resolve()
	_, pats, err := analysis.Load(spec)
	if err != nil {
		t.Fatal(err)
	}
	in, err := analysis.Build(context.Background(), spec, pats)
	if err != nil {
		t.Fatal(err)
	}
	sz, err := analysis.Size(spec, in)
	if err != nil {
		t.Fatal(err)
	}
	r, err := analysis.Open(context.Background(), spec, *how, in, sz, sz.Quota)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Manager == nil || r.Stack.Tier == nil {
		t.Fatal("the run is not out of core over a tier")
	}

	rsrv.Close() // the remote goes dark; vector 0 was never cached
	_, err = r.Manager.Vector(0, false)
	var re *ooc.VectorReadError
	if !errors.As(err, &re) || re.Vi != 0 {
		t.Fatalf("refused read returned %v, want vector 0 unreadable", err)
	}
	st := r.Stack.Tier.Stats()
	if want := int64(r.Stack.Spec.RemoteRetry.Max + 1); st.RemoteErrors != want || st.RemoteRetries != want-1 {
		t.Errorf("one refused read made %d attempts (%d retries), want %d", st.RemoteErrors, st.RemoteRetries, want)
	}
	if st.ShortCircuits != 0 || st.BreakerOpens != 0 || st.Degraded {
		t.Errorf("one refused read moved the breaker: %d opens, %d short circuits, degraded %v",
			st.BreakerOpens, st.ShortCircuits, st.Degraded)
	}
}

// TestRemoteStoreSIGTERMDuringStalledOpen: SIGTERM reaches a run whose
// remote store accepts the object-creating request and never answers.
// The run is interrupted, not failed: it exits 0 at once instead of
// waiting out the remote deadline.
func TestRemoteStoreSIGTERMDuringStalledOpen(t *testing.T) {
	bin := soakBinary(t)
	dir := t.TempDir()
	phy, nwk, memLimit := soakDataset(t, dir, 24, 200)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var held []net.Conn // only the accept goroutine touches it until it exits
	accepted := make(chan struct{})
	go func() {
		defer close(accepted)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			held = append(held, c)
		}
	}()
	defer func() {
		ln.Close()
		<-accepted
		for _, c := range held {
			c.Close()
		}
	}()

	sigtermAfterOneSecond(t, exec.Command(bin, "-s", phy, "-t", nwk, "-f", "z", "-k", "1",
		"-L", fmt.Sprint(memLimit), "-store", "remote://"+ln.Addr().String()+"/vecs"))
}
