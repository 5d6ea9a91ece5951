package ooc

// The store stack — the one place a vector store is assembled. Every
// caller (CLI, service sessions, experiments) describes what it wants
// in a StackSpec and OpenStack builds the chain in one fixed order:
//
//	Crash → Checksum → Fault → Tiered{cache, journal, breaker} → Object
//	                         └──────────────────────────────────→ File | Base
//
// The adoption rule is LvD's: any vector is recomputable, so state left
// by a previous run that fails validation is rebuilt, never trusted.
// The single exception is element precision — resuming at the wrong
// precision is the user resuming the wrong run, so it is a typed fatal
// error, raised before any store is opened (opening can truncate).

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// StackSpec describes a store stack. Exactly one medium is chosen: URL
// if set, else Base if set, else the local file at Path.
type StackSpec struct {
	// TieredConfig carries the geometry (NumVectors, VectorLen) of every
	// stack and the cache-tier settings of a URL stack. There, an empty
	// CacheDir means a temp dir removed by Close, zero CacheVectors is
	// derived from CacheBytes, and zero RemoteRetry / Breaker take the
	// production defaults {Max: 3} / {Threshold: 5}.
	TieredConfig
	// URL (remote://host:port/object) keeps the vectors in an object
	// store behind a local write-back cache tier. The object is opened
	// if it exists with the right geometry, else created.
	URL string
	// Path is the local backing file; without a URL, empty means a temp
	// file removed (with its sidecar) by Close.
	Path string
	// Base is a caller-built medium (the experiments' MemStore).
	Base Store
	// CacheBytes bounds the cache tier when CacheVectors is zero
	// (0 = room for every vector; floored at one vector).
	CacheBytes int64
	// Verify wraps the stack in a ChecksumStore whose sidecar lives at
	// Sidecar (default Path+".sum", or vectors.sum in the cache dir).
	Verify  bool
	Sidecar string
	// Adopt reuses the file and sidecar a previous run left instead of
	// truncating them; Manifest, when set, is the checkpointed manifest
	// the adopted sidecar must match. Anything that fails to open or
	// validate is rebuilt fresh.
	Adopt    bool
	Manifest *Manifest
	// Precision is the run's element precision ("" = f64), recorded in
	// the sidecar manifest and checked against Manifest.
	Precision string
	// Fault injects seeded faults below the checksum layer, where they
	// are detected; CrashAfter > 0 kills the process at that vector
	// I/O, above every layer, so neither data nor checksum lands.
	Fault      *FaultConfig
	CrashAfter int64
}

// Remove deletes what a stack opened from spec keeps on local disk
// between runs: the backing file, or for a URL stack the cache and spill
// directories (the tier creates both and owns everything in them), and
// the sidecar. Call it only once no stack over spec is open. Paths the
// spec leaves empty were temps that Close already removed; the remote
// object is not touched.
func (spec StackSpec) Remove() error {
	paths := []string{spec.Path, spec.Sidecar}
	switch {
	case spec.URL != "":
		paths = []string{spec.CacheDir, spec.SpillDir, spec.Sidecar}
	case spec.Sidecar == "" && spec.Path != "":
		paths = append(paths, spec.Path+".sum")
	}
	var errs []error
	for _, p := range paths {
		if p != "" {
			errs = append(errs, os.RemoveAll(p))
		}
	}
	return errors.Join(errs...)
}

// Stack is an opened store stack. Store is the outermost layer — what a
// Manager is configured with; the typed fields point at the layers
// callers talk to directly and are nil when the layer is absent.
type Stack struct {
	Store    Store
	Checksum *ChecksumStore
	Fault    *FaultStore
	Tier     *TieredStore
	Remote   *ObjectStore
	// Adopted reports that the previous run's file (and, with Verify,
	// its sidecar) opened, validated and was kept.
	Adopted bool
	// Spec is the spec as opened, defaults (paths, cache size) filled in.
	Spec StackSpec
	// Notes are the human-readable adoption decisions, in order.
	Notes []string

	temps []string
}

func (st *Stack) notef(format string, args ...any) {
	st.Notes = append(st.Notes, fmt.Sprintf(format, args...))
}

// OpenStack builds the stack spec describes. On error nothing is left
// open and no temp file is left behind.
func OpenStack(spec StackSpec) (st *Stack, err error) {
	if m := spec.Manifest; m != nil && normPrecision(m.Precision) != normPrecision(spec.Precision) {
		return nil, &PrecisionMismatchError{Store: m.Precision, Run: normPrecision(spec.Precision)}
	}
	st = &Stack{Spec: spec}
	defer func() {
		if err != nil {
			st.Close()
			st = nil
		}
	}()
	if err = st.fillDefaults(); err != nil {
		return st, err
	}
	spec = st.Spec
	if st.Adopted, err = st.openInner(spec.Adopt); err != nil {
		return st, err
	}
	n, vecLen := spec.NumVectors, spec.VectorLen
	if spec.Verify && st.Adopted {
		what := "Backing file " + spec.Path
		if spec.URL != "" {
			what = "Remote store " + spec.URL
		}
		cs, cerr := OpenChecksumStore(st.Store, spec.Sidecar, n, vecLen)
		if cerr == nil {
			st.Store = cs
			cs.SetPrecision(spec.Precision)
			if spec.Manifest != nil {
				cerr = cs.VerifyManifest(*spec.Manifest)
			}
		}
		if cerr != nil {
			st.notef("%s not reusable (%v); rebuilding store", what, cerr)
			st.Store.Close()
			st.Store = nil
			if st.Adopted, err = st.openInner(false); err != nil {
				return st, err
			}
		} else if st.Checksum = cs; spec.Manifest != nil {
			st.notef("%s validated against checkpoint manifest", what)
		}
	}
	if spec.Verify && st.Checksum == nil {
		if st.Checksum, err = NewChecksumStore(st.Store, spec.Sidecar, n, vecLen); err != nil {
			return st, err
		}
		st.Store = st.Checksum
		st.Checksum.SetPrecision(spec.Precision)
	}
	if st.Tier != nil {
		if st.Tier.WarmStart() {
			st.notef("Warm start: adopted the cache tier left in %s", spec.CacheDir)
		}
		st.notef("Cache tier: %d of %d vectors under %s", spec.CacheVectors, n, spec.CacheDir)
	}
	if spec.CrashAfter > 0 {
		st.Store = NewCrashStore(st.Store, spec.CrashAfter)
	}
	return st, nil
}

// fillDefaults resolves the spec's empty paths (creating the temp files
// and dirs Close removes) and the cache-tier defaults into st.Spec.
func (st *Stack) fillDefaults() error {
	spec := &st.Spec
	switch {
	case spec.URL != "":
		if spec.CacheDir == "" {
			dir, err := os.MkdirTemp("", "ooc-cache-*")
			if err != nil {
				return err
			}
			spec.CacheDir = dir
			st.temps = append(st.temps, dir)
		}
		if spec.CacheVectors == 0 {
			spec.CacheVectors = spec.NumVectors
			if spec.CacheBytes > 0 {
				spec.CacheVectors = max(1, int(spec.CacheBytes/(int64(spec.VectorLen)*8)))
			}
		}
		if spec.RemoteRetry.Max == 0 {
			spec.RemoteRetry.Max = 3
		}
		if spec.Breaker.Threshold == 0 {
			spec.Breaker.Threshold = 5
		}
		if spec.Sidecar == "" {
			spec.Sidecar = filepath.Join(spec.CacheDir, "vectors.sum")
		}
		if err := spec.TieredConfig.fill(); err != nil {
			return err
		}
	case spec.Path == "":
		// Over Base the file only reserves the name its sidecar derives from.
		f, err := os.CreateTemp("", "ooc-vectors-*.bin")
		if err != nil {
			return err
		}
		f.Close()
		spec.Path = f.Name()
		st.temps = append(st.temps, spec.Path, spec.Path+".sum")
	}
	if spec.Sidecar == "" {
		spec.Sidecar = spec.Path + ".sum"
	}
	return nil
}

// openInner opens everything below the checksum layer — the medium,
// the cache tier over a remote one, the fault injector — leaving its
// top in st.Store. adopt asks for the previous run's file to be kept;
// the result reports whether what was opened is that run's state.
func (st *Stack) openInner(adopt bool) (adopted bool, err error) {
	spec := &st.Spec
	n, vecLen := spec.NumVectors, spec.VectorLen
	switch {
	case spec.URL != "":
		if st.Remote == nil {
			if st.Remote, err = OpenObjectStore(spec.URL, n, vecLen); err == nil {
				st.notef("Adopting existing remote object %s", spec.URL)
			} else if st.Remote, err = NewObjectStore(spec.URL, n, vecLen); err != nil {
				return false, fmt.Errorf("remote store %s: %w", spec.URL, err)
			}
		}
		if st.Tier, err = NewTieredStore(st.Remote, spec.TieredConfig); err != nil {
			return false, err
		}
		st.Store, adopted = st.Tier, adopt
	case spec.Base != nil:
		st.Store = spec.Base
	default:
		var fs *FileStore
		if adopt {
			if fs, err = OpenFileStore(spec.Path, n, vecLen); err != nil {
				st.notef("Backing file %s not reusable (%v); creating fresh", spec.Path, err)
			}
			adopted = err == nil
		}
		if !adopted {
			if fs, err = NewFileStore(spec.Path, n, vecLen); err != nil {
				return false, err
			}
		}
		st.Store = fs
	}
	if spec.Fault != nil {
		st.Fault = NewFaultStore(st.Store, *spec.Fault)
		st.Store = st.Fault
	}
	return adopted, nil
}

// Close closes the chain (sealing the sidecar and the cache index on
// the way down), then the object store, then removes the temp files
// and dirs OpenStack created — never a path the caller supplied. It
// returns the first error; the typed fields stay readable for
// post-mortem counters.
func (st *Stack) Close() error {
	var first error
	if st.Store != nil {
		first = st.Store.Close()
		st.Store = nil
	}
	if st.Remote != nil {
		if err := st.Remote.Close(); first == nil {
			first = err
		}
	}
	for _, p := range st.temps {
		os.RemoveAll(p)
	}
	return first
}
