package checkpoint

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"oocphylo/internal/model"
	"oocphylo/internal/tree"
)

// TestCrashAtEverySaveBoundary kills Save at each of its boundaries, in
// a first save (no checkpoint yet) and in a second (one to replace); the
// process exit is replaced by a panic the test recovers. After each kill
// Load must return the previous state (none, before the first save)
// before the rename and the new one from the rename on, never an
// error or a mix of the two; the directory must hold the checkpoint and
// at most its one temp file; and the next Save must succeed over what
// the kill left and leave only the checkpoint.
func TestCrashAtEverySaveBoundary(t *testing.T) {
	type crashed struct{}
	defer func(exit func()) { crashExit = exit }(crashExit)
	crashExit = func() { panic(crashed{}) }
	defer ArmCrash(0, 0)

	m, err := model.NewJC(4)
	if err != nil {
		t.Fatal(err)
	}
	var states []*State
	for i, nwk := range []string{"(a:0.1,b:0.2,(c:0.3,d:0.4):0.5);", "((a:0.6,c:0.7):0.8,b:0.9,d:1.1);", "(a:1.2,b:1.3,(c:1.4,d:1.5):1.6);"} {
		tr, err := tree.ParseNewick(nwk)
		if err != nil {
			t.Fatal(err)
		}
		states = append(states, Capture(tr, m, -float64(i+1), i+1))
	}

	for k := 1; k <= 2; k++ {
		for b := Created; b <= DirSynced; b++ {
			t.Run(fmt.Sprintf("save%d/boundary%d", k, b), func(t *testing.T) {
				dir := t.TempDir()
				path := filepath.Join(dir, "run.ckpt")
				ArmCrash(k, b)
				fired := func() (fired bool) {
					defer func() {
						if r := recover(); r != nil {
							if _, ok := r.(crashed); !ok {
								panic(r)
							}
							fired = true
						}
					}()
					for _, st := range states[:k] {
						if err := Save(path, st); err != nil {
							t.Fatal(err)
						}
					}
					return false
				}()
				ArmCrash(0, 0)
				if !fired {
					t.Fatalf("crash at boundary %d of save %d never fired", b, k)
				}

				// What survives: the new state once the rename is done,
				// the previous one (or none) before.
				want := k - 1
				if b >= Renamed {
					want = k
				}
				got, err := Load(path)
				switch {
				case want == 0:
					if !errors.Is(err, fs.ErrNotExist) {
						t.Fatalf("after a crash in the first save, Load = %+v, %v; want no checkpoint", got, err)
					}
				case err != nil:
					t.Fatalf("after the crash Load failed: %v", err)
				case !reflect.DeepEqual(got, states[want-1]):
					t.Fatalf("after the crash Load = %+v, want state %d %+v", got, want, states[want-1])
				}
				checkDir(t, dir, "run.ckpt", "run.ckpt.tmp")

				// The next save replaces whatever the kill left.
				if err := Save(path, states[2]); err != nil {
					t.Fatalf("save after the crash: %v", err)
				}
				if got, err := Load(path); err != nil || !reflect.DeepEqual(got, states[2]) {
					t.Fatalf("save after the crash: Load = %+v, %v", got, err)
				}
				checkDir(t, dir, "run.ckpt")
			})
		}
	}
}

// checkDir fails unless every file in dir is one of allowed.
func checkDir(t *testing.T, dir string, allowed ...string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	for _, n := range names {
		if !slices.Contains(allowed, n) {
			t.Fatalf("directory holds %v; only %v may be there", names, allowed)
		}
	}
}
