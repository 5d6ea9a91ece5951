package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"oocphylo/internal/iosim"
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

// TestRemoteStoreRerunOverCacheDir reruns over a persistent -cache-dir
// with -verify-store: the second run starts cold over what the first
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
		"-L", "1200", "-lnl-bits", "-verify-store",
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
