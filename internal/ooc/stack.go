package ooc

// The store stack — the one place a vector store is assembled. Every
// caller (CLI, service sessions, experiments) describes what it wants
// in a StackSpec and OpenStack builds the chain in one fixed order:
//
//	Crash → Checksum → Fault → Tiered{cache file, pend, breaker} → Object
//	                         └──────────────────────────────────────→ File | Base
//
// The one Checksum is the stack's integrity check, and every stack has
// it: the layers below check nothing, so a flipped bit in the backing
// file, a rotted cache slot and a corrupt GET are all caught there, by
// vector.
//
// The rule is LvD's, any vector is recomputable, taken to its end: a
// process reads only vectors it wrote. Every open creates fresh stores
// (file truncated, remote object sized, checksum tables empty, cache
// tier cold) and Close discards what the run never pushed; nothing a
// previous process left is validated, because nothing of it is ever
// read — a resumed or revived engine starts all-invalid and recomputes
// each vector before its first read.

import (
	"context"
	"fmt"
	"os"
)

// StackSpec describes a store stack. Exactly one medium is chosen: URL
// if set, else Base if set, else the local file at Path.
type StackSpec struct {
	// TieredConfig carries the geometry (NumVectors, VectorLen) of every
	// stack and the cache-tier settings of a URL stack. There, an empty
	// CacheDir means a temp dir removed by Close, zero CacheVectors is
	// derived from CacheBytes, a zero RemoteRetry takes the production
	// default {Max: 3}, and zero Breaker fields take BreakerConfig's.
	TieredConfig
	// URL (remote://host:port/object) keeps the vectors in an object
	// store behind a local write-back cache tier. The object is created
	// or resized to the geometry.
	URL string
	// Path is the local backing file, created or truncated; without a
	// URL, empty means a temp file removed by Close.
	Path string
	// Base is a caller-built medium (the experiments' MemStore).
	Base Store
	// CacheBytes bounds the cache tier when CacheVectors is zero
	// (0 = room for every vector; floored at one vector), while the
	// remote accepts writes (see TieredConfig.CacheVectors).
	CacheBytes int64
	// Fault injects seeded faults below the checksum layer, where they
	// are detected; CrashAfter > 0 kills the process at that vector
	// I/O, above every layer, so neither data nor checksum lands.
	Fault      *FaultConfig
	CrashAfter int64
}

// Remove deletes what a stack opened from spec keeps on local disk
// between runs: the backing file, or for a URL stack the cache
// directory (the tier creates it and owns everything in it). Call it
// only once no stack over spec is open. A path the spec leaves empty
// was a temp that Close already removed; the remote object is not
// touched.
func (spec StackSpec) Remove() error {
	p := spec.Path
	if spec.URL != "" {
		p = spec.CacheDir
	}
	if p == "" {
		return nil
	}
	return os.RemoveAll(p)
}

// Stack is an opened store stack. Store is the outermost layer — what a
// Manager is configured with; the typed fields point at the layers
// callers talk to directly and are nil when the layer is absent
// (Checksum never is).
type Stack struct {
	Store    Store
	Checksum *ChecksumStore
	Fault    *FaultStore
	Tier     *TieredStore
	Remote   *ObjectStore
	// Spec is the spec as opened, defaults (paths, cache size) filled in.
	Spec StackSpec
	// Notes are human-readable lines about what was opened, in order.
	Notes []string

	temps []string
}

// OpenStack builds the stack spec describes. On error nothing is left
// open and no temp file is left behind.
func OpenStack(spec StackSpec) (st *Stack, err error) {
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
	n, vecLen := spec.NumVectors, spec.VectorLen
	switch {
	case spec.URL != "":
		// The create is one remote request, bounded like every other.
		ctx, cancel := context.WithTimeout(context.Background(), spec.RemoteDeadline)
		st.Remote, err = NewObjectStore(ctx, spec.URL, n, vecLen)
		cancel()
		if err != nil {
			return st, fmt.Errorf("remote store %s: %w", spec.URL, err)
		}
		if st.Tier, err = NewTieredStore(st.Remote, spec.TieredConfig); err != nil {
			return st, err
		}
		st.Store = st.Tier
		st.Notes = append(st.Notes, fmt.Sprintf("Cache tier: %d of %d vectors under %s", spec.CacheVectors, n, spec.CacheDir))
	case spec.Base != nil:
		st.Store = spec.Base
	default:
		if st.Store, err = NewFileStore(spec.Path, n, vecLen); err != nil {
			return st, err
		}
	}
	if spec.Fault != nil {
		st.Fault = NewFaultStore(st.Store, *spec.Fault)
		st.Store = st.Fault
	}
	if st.Checksum, err = NewChecksumStore(st.Store, "", n, vecLen); err != nil {
		return st, err
	}
	st.Store = st.Checksum
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
		return spec.TieredConfig.fill()
	case spec.Base == nil && spec.Path == "":
		f, err := os.CreateTemp("", "ooc-vectors-*.bin")
		if err != nil {
			return err
		}
		f.Close()
		spec.Path = f.Name()
		st.temps = append(st.temps, spec.Path)
	}
	return nil
}

// Close closes the chain, then the object store, then removes the temp
// files and dirs OpenStack created — never a path the caller supplied.
// It returns the first error; the typed fields stay readable for
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
