package ooc

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

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
// {Verify on, off} × {nothing on disk, a previous stack's leftovers,
// leftovers written at another geometry — half the vector length}.
// It pins the chain shape, that leftovers change nothing — the stack
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
						Verify:       verify, CrashAfter: 1 << 40,
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
						prev, err := OpenStack(was)
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

					st, err := OpenStack(spec)
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
					want := []string{"*ooc.CrashStore"}
					if verify {
						want = append(want, "*ooc.ChecksumStore")
					}
					if isRemote {
						want = append(want, "*ooc.TieredStore")
					} else {
						want = append(want, "*ooc.FileStore")
					}
					if !reflect.DeepEqual(chain, want) {
						t.Errorf("chain = %v, want %v", chain, want)
					}
					if (st.Checksum != nil) != verify || (st.Tier != nil) != isRemote || (st.Remote != nil) != isRemote || st.Fault != nil {
						t.Errorf("layers: checksum %v tier %v remote %v fault %v", st.Checksum != nil, st.Tier != nil, st.Remote != nil, st.Fault != nil)
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
	st, err := OpenStack(StackSpec{
		TieredConfig: TieredConfig{NumVectors: n, VectorLen: vecLen, CacheVectors: 1},
		URL:          srv.ObjectURL("obj"), Verify: true,
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
