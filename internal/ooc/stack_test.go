package ooc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"oocphylo/internal/iosim"
	"oocphylo/internal/ooc/remote"
)

// openFilesUnder lists this process's open descriptors that point below
// dir (Linux /proc; empty elsewhere).
func openFilesUnder(dir string) []string {
	if real, err := filepath.EvalSymlinks(dir); err == nil {
		dir = real
	}
	var open []string
	ents, _ := os.ReadDir("/proc/self/fd")
	for _, e := range ents {
		if link, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); err == nil && strings.HasPrefix(link, dir) {
			open = append(open, link)
		}
	}
	return open
}

// TestOpenStack is the builder's table: {local file, remote loopback} ×
// {verify=true: a vector rotted under the manager, verify=false: none}
// × {nothing on disk, a previous stack's leftovers, leftovers written at
// another geometry — half the vector length}. It pins the chain shape
// (no layer checks; the manager over any stack does, so the rotted
// vector reads as corruption with no flag asking), that leftovers change nothing — the stack
// opens fresh and cold over them, at whatever geometry it is asked for
// — that only the vector/cache file is ever created,
// and that Close releases every file and removes exactly the temp paths
// OpenStack created.
func TestOpenStack(t *testing.T) {
	const n, vecLen = 6, 5
	for _, medium := range []string{"local", "remote"} {
		for _, verify := range []bool{true, false} {
			for _, scenario := range []string{"fresh", "leftover", "geometry mismatch"} {
				isRemote, leftover := medium == "remote", scenario != "fresh"
				t.Run(fmt.Sprintf("%s/verify=%v/%s", medium, verify, scenario), func(t *testing.T) {
					dir := t.TempDir()
					tmp := filepath.Join(dir, "tmp")
					if err := os.Mkdir(tmp, 0o755); err != nil {
						t.Fatal(err)
					}
					t.Setenv("TMPDIR", tmp)
					spec := StackSpec{
						TieredConfig: TieredConfig{NumVectors: n, VectorLen: vecLen},
					}
					if isRemote {
						srv, err := remote.NewServer(remote.ServerConfig{})
						if err != nil {
							t.Fatal(err)
						}
						defer srv.Close()
						spec.URL = srv.ObjectURL("obj")
					}

					kept := "" // the caller-supplied path Close must leave alone
					if leftover {
						// The previous process: explicit paths, every vector
						// written, cleanly closed.
						if kept = filepath.Join(dir, "v.bin"); isRemote {
							kept = filepath.Join(dir, "cache")
							spec.CacheDir = kept
						} else {
							spec.Path = kept
						}
						was := spec
						if scenario == "geometry mismatch" {
							was.VectorLen = (vecLen + 1) / 2
						}
						prev, err := OpenStack(context.Background(), was)
						if err != nil {
							t.Fatal(err)
						}
						for vi := 0; vi < n; vi++ {
							if err := prev.Store.WriteVector(vi, tierVec(was.VectorLen, vi)); err != nil {
								t.Fatal(err)
							}
						}
						if err := prev.Close(); err != nil {
							t.Fatal(err)
						}
					}

					st, err := OpenStack(context.Background(), spec)
					if err != nil {
						t.Fatal(err)
					}
					var chain []string
					for s := st.Store; ; {
						chain = append(chain, fmt.Sprintf("%T", s))
						u, ok := s.(Unwrapper)
						if !ok {
							break
						}
						s = u.Unwrap()
					}
					want := []string{"*ooc.FileStore"}
					if isRemote {
						want = []string{"*ooc.TieredStore"}
					}
					if !reflect.DeepEqual(chain, want) {
						t.Errorf("chain = %v, want %v", chain, want)
					}
					if (st.Tier != nil) != isRemote || (st.Remote != nil) != isRemote || st.Fault != nil {
						t.Errorf("layers: tier %v remote %v fault %v", st.Tier != nil, st.Remote != nil, st.Fault != nil)
					}
					if notes := strings.Join(st.Notes, "\n"); isRemote != strings.HasPrefix(notes, "Cache tier:") || strings.Contains(notes, "\n") {
						t.Errorf("notes = %q, want the cache tier's line over a remote and nothing else", notes)
					}

					// Fresh and cold whatever was left: the file is truncated,
					// the cache holds nothing.
					got := make([]float64, vecLen)
					if isRemote {
						// The remote never saw vector 2, so the read may
						// fail; it must not be a cache hit.
						_ = st.Tier.ReadVector(2, got)
						if ts := st.Tier.Stats(); ts.CacheHits != 0 || ts.CacheMisses != 1 {
							t.Errorf("vector 2 in a tier that was just opened: %d cache hits, %d misses, want one miss", ts.CacheHits, ts.CacheMisses)
						}
					} else if err := st.Store.ReadVector(2, got); err != nil || !reflect.DeepEqual(got, make([]float64, vecLen)) {
						t.Errorf("never-written vector 2 = %v (err %v), want a truncated file's zeros", got, err)
					}
					if err := st.Store.WriteVector(1, tierVec(vecLen, 77)); err != nil {
						t.Fatal(err)
					}
					if err := st.Store.ReadVector(1, got); err != nil || !reflect.DeepEqual(got, tierVec(vecLen, 77)) {
						t.Errorf("round trip through the stack = %v (err %v)", got, err)
					}
					if verify {
						// Rot vector 1 under the manager: its read must
						// refuse it, not hand it back as data.
						c := newChecked(t, st.Store, n, vecLen)
						if err := c.put(1, tierVec(vecLen, 79)); err != nil {
							t.Fatal(err)
						}
						if err := st.Store.WriteVector(1, tierVec(vecLen, 78)); err != nil {
							t.Fatal(err)
						}
						if err := c.get(1, got); !IsCorruption(err) {
							t.Errorf("vector rotted under the manager: read err %v, want corruption", err)
						}
					}

					if err := st.Close(); err != nil {
						t.Errorf("Close: %v", err)
					}
					if open := openFilesUnder(dir); len(open) != 0 {
						t.Errorf("Close left files open: %v", open)
					}
					if ents, _ := os.ReadDir(tmp); len(ents) != 0 {
						t.Errorf("Close left %d temp entries behind", len(ents))
					}
					if kept != "" {
						var files []string
						filepath.WalkDir(dir, func(path string, d os.DirEntry, _ error) error {
							if !d.IsDir() {
								files = append(files, strings.TrimPrefix(path, dir+"/"))
							}
							return nil
						})
						want := []string{"v.bin"}
						if isRemote {
							want = []string{"cache/cache.vec"}
						}
						if !reflect.DeepEqual(files, want) {
							t.Errorf("files on disk after Close = %v, want exactly %v", files, want)
						}
					}
				})
			}
		}
	}
}

// flipCacheBit rots the cached copy of vector vi on disk, under the
// manager.
func flipCacheBit(t *testing.T, ts *TieredStore, dir string, vi, vecLen int) {
	t.Helper()
	ts.mu.Lock()
	slot, ok := ts.slotOf[vi]
	ts.mu.Unlock()
	if !ok {
		t.Fatalf("vector %d is not cached", vi)
	}
	f, err := os.OpenFile(filepath.Join(dir, "cache.vec"), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	off := int64(slot)*int64(vecLen)*8 + 3
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x10
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// TestURLStackVerifiesCorruptGET: a GET whose payload the network
// corrupted comes back from the manager's read as a *CorruptionError
// naming the vector, not as the flipped bytes the tier would otherwise
// cache and serve.
func TestURLStackVerifiesCorruptGET(t *testing.T) {
	const n, vecLen = 4, 5
	chaos := iosim.NewChaos(iosim.ChaosConfig{Seed: 1, CorruptProb: 1})
	chaos.Disable()
	srv, err := remote.NewServer(remote.ServerConfig{Chaos: chaos})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	st, err := OpenStack(context.Background(), StackSpec{
		TieredConfig: TieredConfig{NumVectors: n, VectorLen: vecLen, CacheVectors: 1},
		URL:          srv.ObjectURL("obj"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	c := newChecked(t, st.Store, n, vecLen)
	// Vector 2 reaches the remote as the one-slot cache's dirty victim.
	for _, vi := range []int{2, 3} {
		if err := c.put(vi, tierVec(vecLen, vi)); err != nil {
			t.Fatal(err)
		}
	}
	if w := st.Tier.Stats().RemoteWrites; w != 1 {
		t.Fatalf("%d remote writes, want vector 2's eviction", w)
	}
	// Armed only now: the chaos turns a corrupt PUT into a dropped one.
	chaos.Enable()
	buf := make([]float64, vecLen)
	err = c.get(2, buf)
	if ce := (*CorruptionError)(nil); !errors.As(err, &ce) || ce.Vector != 2 {
		t.Fatalf("read of vector 2 over a corrupting GET = %v (err %v), want vector 2's *CorruptionError", buf, err)
	}
}

// TestURLStackCorruptCacheSlotNamesVector: the cache file is indexed by
// slot, the manager's table by vector. A rotted cache slot is
// reported as the vector the slot held — on a read of it, and on the
// read-back once the tier pushed the rotted record as a dirty victim —
// or the engine would recompute the wrong vector.
func TestURLStackCorruptCacheSlotNamesVector(t *testing.T) {
	const n, vecLen = 10, 4
	srv, err := remote.NewServer(remote.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dir := t.TempDir()
	st, err := OpenStack(context.Background(), StackSpec{
		TieredConfig: TieredConfig{NumVectors: n, VectorLen: vecLen, CacheDir: dir, CacheVectors: 1},
		URL:          srv.ObjectURL("obj"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	c := newChecked(t, st.Store, n, vecLen)
	if err := c.put(7, tierVec(vecLen, 7)); err != nil {
		t.Fatal(err)
	}
	flipCacheBit(t, st.Tier, dir, 7, vecLen)
	buf := make([]float64, vecLen)
	corrupt := func(when string) {
		t.Helper()
		err := c.get(7, buf)
		if ce := (*CorruptionError)(nil); !errors.As(err, &ce) || ce.Vector != 7 {
			t.Errorf("%s: read of rotted vector 7 returned %v, want vector 7's *CorruptionError", when, err)
		}
	}
	corrupt("cached")
	// Writing vector 3 evicts dirty vector 7: the tier pushes the rotted
	// record as it stands, and the read-back GETs it.
	if err := c.put(3, tierVec(vecLen, 3)); err != nil {
		t.Fatal(err)
	}
	if w := st.Tier.Stats().RemoteWrites; w != 1 {
		t.Fatalf("%d remote writes, want vector 7's eviction", w)
	}
	corrupt("pushed")
}

// TestURLStackOpenStalledRemote: an object server that accepts the
// connection and never answers fails the open within the remote
// deadline, as it fails any other remote attempt; it does not hang the
// run or the daemon session that opens the stack.
func TestURLStackOpenStalledRemote(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
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
	opened := make(chan error, 1)
	go func() {
		st, err := OpenStack(context.Background(), StackSpec{
			TieredConfig: TieredConfig{NumVectors: 4, VectorLen: 3, RemoteDeadline: 50 * time.Millisecond},
			URL:          "remote://" + ln.Addr().String() + "/obj",
		})
		if err == nil {
			st.Close()
		}
		opened <- err
	}()
	select {
	case err := <-opened:
		if err == nil {
			t.Fatal("a stack opened over a server that never answered")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OpenStack hung on a stalled object server")
	}
}

// settledGoroutines returns the process's goroutine count once it has
// stopped moving. Idle HTTP keep-alive connections hold goroutines at
// both ends of a loopback object server and exiting goroutines take a
// moment to go, so idle connections are closed and the count must hold
// still for 50 ms; a leaked goroutine holds still too, and is counted.
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

// TestTieredStackStartsNoGoroutine: concurrency is what the callers
// bring. Opening a URL stack, missing through it and closing it leave
// the goroutine count where it was.
func TestTieredStackStartsNoGoroutine(t *testing.T) {
	const n, vecLen = 6, 5
	srv, err := remote.NewServer(remote.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := settledGoroutines()
	st, err := OpenStack(context.Background(), StackSpec{
		TieredConfig: TieredConfig{NumVectors: n, VectorLen: vecLen, CacheVectors: 1},
		URL:          srv.ObjectURL("obj"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := settledGoroutines(); got > base {
		t.Errorf("%d goroutines with a URL stack open, %d before", got, base)
	}
	buf := make([]float64, vecLen)
	for pass := 0; pass < 2; pass++ { // one-slot cache: the second pass misses
		for vi := 0; vi < n; vi++ {
			if pass == 0 {
				err = st.Store.WriteVector(vi, buf)
			} else {
				err = st.Store.ReadVector(vi, buf)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if st.Tier.Stats().RemoteReads == 0 {
		t.Fatal("no read went remote")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if got := settledGoroutines(); got > base {
		t.Errorf("%d goroutines after Stack.Close, %d before OpenStack", got, base)
	}
}
