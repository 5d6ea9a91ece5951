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
// {Verify on, off} × what the previous run left behind. It pins the
// chain shape, the adoption decision and its notes, that a failed
// adoption still yields a usable fresh stack, that a precision mismatch
// fails before anything is touched, and that Close releases every file
// and removes exactly the temp paths OpenStack created.
func TestOpenStack(t *testing.T) {
	const n, vecLen = 6, 5
	scenarios := []struct {
		name string
		// broken scenarios damage the sidecar or manifest and so need Verify.
		broken bool
	}{
		{"fresh", false},
		{"adopt ok", false},
		{"sidecar missing", true},
		{"sidecar not cleanly closed", true},
		{"manifest generation mismatch", true},
		{"precision mismatch", false},
	}
	for _, medium := range []string{"local", "remote"} {
		for _, verify := range []bool{true, false} {
			for _, sc := range scenarios {
				if sc.broken && !verify {
					continue
				}
				isRemote, sc := medium == "remote", sc
				t.Run(fmt.Sprintf("%s/verify=%v/%s", medium, verify, sc.name), func(t *testing.T) {
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
					var srv *remote.Server
					if isRemote {
						var err error
						if srv, err = remote.NewServer(remote.ServerConfig{}); err != nil {
							t.Fatal(err)
						}
						defer srv.Close()
						spec.URL = srv.ObjectURL("obj")
					}
					// snapshot renders the medium's persistent state.
					snapshot := func() string {
						if !isRemote {
							data, err := os.ReadFile(spec.Path)
							if err != nil {
								t.Fatal(err)
							}
							return string(data)
						}
						obj, err := OpenObjectStore(spec.URL, n, vecLen)
						if err != nil {
							t.Fatal(err)
						}
						defer obj.Close()
						v := make([]float64, vecLen)
						if err := obj.ReadVector(2, v); err != nil {
							t.Fatal(err)
						}
						return fmt.Sprint(srv.Size("obj"), v)
					}

					kept := "" // the caller-supplied path Close must leave alone
					if sc.name != "fresh" {
						// The previous run: explicit paths, every vector written,
						// cleanly closed.
						if kept = filepath.Join(dir, "v.bin"); isRemote {
							kept = filepath.Join(dir, "cache")
							spec.CacheDir = kept
						} else {
							spec.Path = kept
						}
						prev, err := OpenStack(spec)
						if err != nil {
							t.Fatal(err)
						}
						for vi := 0; vi < n; vi++ {
							if err := prev.Store.WriteVector(vi, tierVec(vecLen, vi)); err != nil {
								t.Fatal(err)
							}
						}
						spec.Adopt = true
						if verify {
							if err := prev.Checksum.Sync(); err != nil {
								t.Fatal(err)
							}
							man := prev.Checksum.Manifest()
							spec.Manifest = &man
						}
						if err := prev.Close(); err != nil {
							t.Fatal(err)
						}
						switch sc.name {
						case "sidecar missing":
							if err := os.Remove(prev.Spec.Sidecar); err != nil {
								t.Fatal(err)
							}
						case "sidecar not cleanly closed":
							// Damage the header's checksum-of-checksums.
							data, err := os.ReadFile(prev.Spec.Sidecar)
							if err != nil {
								t.Fatal(err)
							}
							data[32] ^= 0xff
							if err := os.WriteFile(prev.Spec.Sidecar, data, 0o644); err != nil {
								t.Fatal(err)
							}
						case "manifest generation mismatch":
							spec.Manifest.Generation++
						case "precision mismatch":
							if spec.Manifest == nil {
								spec.Manifest = &Manifest{NumVectors: n, VectorLen: vecLen}
							}
							spec.Manifest.Precision = "f32"
						}
					}

					if sc.name == "precision mismatch" {
						before := snapshot()
						if _, err := OpenStack(spec); !IsPrecisionMismatch(err) {
							t.Fatalf("err = %v, want a precision mismatch", err)
						}
						if after := snapshot(); after != before {
							t.Error("a precision mismatch modified the stored vectors")
						}
						if open := openFilesUnder(dir); len(open) != 0 {
							t.Errorf("failed open left files open: %v", open)
						}
						return
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
					adoptOK, leftover := sc.name == "adopt ok", sc.name != "fresh"
					if st.Adopted != adoptOK {
						t.Errorf("Adopted = %v, want %v", st.Adopted, adoptOK)
					}
					if isRemote && st.Tier.WarmStart() != leftover {
						t.Errorf("WarmStart = %v, want %v", st.Tier.WarmStart(), leftover)
					}
					notes := strings.Join(st.Notes, "\n")
					for sub, want := range map[string]bool{
						"validated against checkpoint manifest": adoptOK && verify,
						"not reusable":                          sc.broken,
						"rebuilding store":                      sc.broken,
						"Adopting existing remote object":       isRemote && leftover,
						"Warm start:":                           isRemote && leftover,
						"Cache tier:":                           isRemote,
					} {
						if strings.Contains(notes, sub) != want {
							t.Errorf("note %q present = %v, want %v; notes:\n%s", sub, !want, want, notes)
						}
					}

					got := make([]float64, vecLen)
					if adoptOK {
						if err := st.Store.ReadVector(2, got); err != nil || !reflect.DeepEqual(got, tierVec(vecLen, 2)) {
							t.Errorf("adopted vector 2 = %v (err %v), want the previous run's", got, err)
						}
					} else if verify && st.Checksum.Manifest().Generation != 0 {
						t.Errorf("sidecar generation %d, want a fresh sidecar", st.Checksum.Manifest().Generation)
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
						if _, err := os.Stat(kept); err != nil {
							t.Errorf("Close removed the caller's %s: %v", kept, err)
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
