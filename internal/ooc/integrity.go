package ooc

// Integrity layer — the fault-tolerance half of the paper's closing
// claim. "Given enough execution time and disk space, the out-of-core
// version can be deployed to essentially infer trees on datasets of
// arbitrary size" (§4.3) implies runs long enough that disk faults,
// torn writes and bit rot are expected events, not exceptions. This
// file adds the two pieces the store stack needs to survive them:
//
//   - ChecksumStore wraps any Store with a per-vector CRC64 +
//     generation-tag sidecar. Every read is verified against the
//     checksum recorded at write time; a mismatch surfaces as a typed
//     *CorruptionError instead of silently poisoning the likelihood.
//     The sidecar carries a versioned header binding it to the backing
//     file's geometry, and a manifest (generation, checksum-of-
//     checksums) that checkpoints can persist so a resumed run can
//     validate — or decide to rebuild — the backing file.
//
//   - RetryPolicy implements capped exponential backoff for transient
//     I/O errors (ErrTransientIO), used by the manager's synchronous
//     demand path and the async pipeline workers alike.
//
// Crucially, corruption need not abort a run: the LvD framing of
// likelihood computation as a recompute-vs-store tradeoff (Bryant et
// al.) means any ancestral vector is recomputable from its children,
// so the likelihood engine turns a *CorruptionError into a partial
// re-traversal (see plf.Engine) — extra compute instead of a failed
// run.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"math"
	"math/rand"
	"os"
	"sync/atomic"
	"time"
)

// CorruptionError reports that a vector read back from the backing
// store does not match the checksum recorded when it was last written —
// a torn write, a flipped bit, or an overwritten region.
type CorruptionError struct {
	// Vector is the corrupted vector's global index.
	Vector int
	// Want is the checksum recorded at write time; Got what the payload
	// read back hashes to.
	Want, Got uint64
}

// Error implements error.
func (e *CorruptionError) Error() string {
	return fmt.Sprintf("ooc: vector %d corrupt: checksum %016x, want %016x", e.Vector, e.Got, e.Want)
}

// CorruptVector returns the corrupted vector's index. The method (not
// the concrete type) is what the likelihood engine's recovery path
// matches on, so plf need not import this package.
func (e *CorruptionError) CorruptVector() int { return e.Vector }

// IsCorruption reports whether err is (or wraps) a *CorruptionError.
func IsCorruption(err error) bool {
	var ce *CorruptionError
	return errors.As(err, &ce)
}

// PrecisionMismatchError reports a resume attempt whose compute
// precision does not match the precision the persisted store was
// written under. The carrier geometry alone cannot catch every such
// mismatch (an f32 run over 2L patterns has the same carrier length as
// an f64 run over L), and silently reinterpreting the bytes would
// decode garbage likelihoods, so the manifest records the element
// precision and the mismatch is a hard, typed error — unlike geometry
// mismatches, which fall back to rebuilding the store.
type PrecisionMismatchError struct {
	// Store is the precision recorded in the manifest ("" means a
	// legacy float64 store); Run is the precision of the resuming run.
	Store, Run string
}

// Error implements error.
func (e *PrecisionMismatchError) Error() string {
	st := e.Store
	if st == "" {
		st = "f64 (legacy)"
	}
	return fmt.Sprintf("ooc: store precision %s does not match run precision %s; restart without -resume or rerun at the store's precision", st, e.Run)
}

// IsPrecisionMismatch reports whether err is (or wraps) a
// *PrecisionMismatchError.
func IsPrecisionMismatch(err error) bool {
	var pe *PrecisionMismatchError
	return errors.As(err, &pe)
}

// ErrTransientIO marks an I/O failure believed to be transient — worth
// re-issuing rather than aborting. FaultStore wraps its injected EIO
// errors with it; real-device store implementations can do the same.
var ErrTransientIO = errors.New("transient I/O error")

// IsTransient reports whether err is worth retrying.
func IsTransient(err error) bool { return errors.Is(err, ErrTransientIO) }

// RetryPolicy caps the retry loop applied to transient store errors:
// up to Max re-issues with full-jitter exponential backoff starting at
// Base and capped at Cap. The zero value disables retries (first error
// wins).
type RetryPolicy struct {
	// Max is the number of re-issues after the initial attempt.
	Max int
	// Base is the backoff envelope before the first retry (default
	// 200µs when Max > 0); each subsequent retry doubles it.
	Base time.Duration
	// Cap bounds the per-retry envelope (default 50ms).
	Cap time.Duration
	// Rand supplies the uniform variates for full-jitter backoff: each
	// sleep is drawn uniformly from (0, envelope]. Deterministic
	// doubling would wake every remote caller at the same instant after a
	// shared outage — a synchronized retry storm — so jitter is always
	// on; nil uses the (goroutine-safe) global math/rand source, tests
	// inject a seeded func to stay deterministic. A policy handed to a
	// TieredStore is run from several goroutines at once, so a func
	// injected there must be safe for concurrent use.
	Rand func() float64
}

// jittered draws one full-jitter sleep from the envelope d.
func (rp RetryPolicy) jittered(d time.Duration) time.Duration {
	f := rand.Float64
	if rp.Rand != nil {
		f = rp.Rand
	}
	j := time.Duration(f() * float64(d))
	if j <= 0 {
		j = 1
	}
	return j
}

// run executes op, re-issuing it per the policy while the error is
// transient. Every retry taken is added to counter (shared between the
// compute thread and pipeline workers, hence atomic).
func (rp RetryPolicy) run(counter *atomic.Int64, op func() error) error {
	return rp.runCtx(nil, counter, op)
}

// runCtx is run with cooperative cancellation: a non-nil ctx aborts
// the backoff sleeps once cancelled. op itself is never interrupted —
// the first attempt always runs to completion, so a cancelled context
// degrades the policy to "no retries" rather than "no I/O".
func (rp RetryPolicy) runCtx(ctx context.Context, counter *atomic.Int64, op func() error) error {
	err := op()
	delay := rp.Base
	if delay <= 0 {
		delay = 200 * time.Microsecond
	}
	cap := rp.Cap
	if cap <= 0 {
		cap = 50 * time.Millisecond
	}
	for attempt := 0; attempt < rp.Max && IsTransient(err); attempt++ {
		if delay > cap {
			delay = cap
		}
		sleep := rp.jittered(delay)
		if ctx != nil {
			select {
			case <-time.After(sleep):
			case <-ctx.Done():
				return fmt.Errorf("ooc: retry abandoned after %w: %w", err, ctx.Err())
			}
		} else {
			time.Sleep(sleep)
		}
		delay *= 2
		if counter != nil {
			counter.Add(1)
		}
		err = op()
	}
	return err
}

// Manifest summarises a ChecksumStore for external persistence: the
// geometry it is bound to, the write-generation high-water mark, and a
// checksum over the per-vector checksum table itself. checkpoint.State
// embeds one so -resume can detect a backing file that does not match
// the run being resumed.
type Manifest struct {
	NumVectors int    `json:"num_vectors"`
	VectorLen  int    `json:"vector_len"`
	Generation uint64 `json:"generation"`
	SumOfSums  uint64 `json:"sum_of_sums"`
	// Precision is the element precision of the persisted vectors
	// ("f64" or "f32"); empty in manifests written before the field
	// existed, which always meant float64. VectorLen is the carrier
	// length in float64s either way.
	Precision string `json:"precision,omitempty"`
}

// crcTable is the ECMA CRC64 table shared by all checksum operations.
var crcTable = crc64.MakeTable(crc64.ECMA)

// Sidecar layout: a fixed header binding the sidecar to the backing
// file's geometry, then one 16-byte record (checksum, generation) per
// vector. Records are written with positioned writes as vectors land;
// the header's generation and sum-of-sums are refreshed by Sync/Close.
const (
	sidecarMagic      = "OOCSUM\x01\n"
	sidecarHeaderSize = 48
	sidecarRecordSize = 16
)

// vectorChecksum hashes a vector's payload in its on-disk (little-
// endian float64) representation, so the checksum is byte-exact against
// what FileStore persists.
func vectorChecksum(v []float64) uint64 {
	if hostLittleEndian {
		return crc64.Checksum(f64Bytes(v), crcTable)
	}
	h := crc64.New(crcTable)
	var buf [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// ChecksumStore wraps an inner Store with per-vector CRC64 verification
// and a persistent sidecar file. Reads of a never-written vector are
// accepted as-is (a fresh backing file legitimately reads zeros); any
// other read whose payload does not hash to the recorded checksum
// returns a *CorruptionError.
//
// Concurrency matches the Store contract: calls on distinct vectors are
// safe (per-vector state lives at distinct slice indices and distinct
// sidecar offsets; the generation counter is atomic), concurrent
// operations on the same vector are the caller's bug.
type ChecksumStore struct {
	inner  Store
	f      *os.File
	n      int
	vecLen int
	// precision tags the element precision recorded in the manifest
	// (see SetPrecision); "" is treated as "f64" for compatibility with
	// sidecars and manifests written before the tag existed.
	precision string
	sums      []uint64
	gens      []uint64
	gen       atomic.Uint64
	// CorruptReads counts reads that failed verification.
	corruptReads atomic.Int64
}

// NewChecksumStore creates a fresh sidecar at sidecarPath (truncating
// any previous one) for an inner store holding numVectors vectors of
// vecLen float64s.
func NewChecksumStore(inner Store, sidecarPath string, numVectors, vecLen int) (*ChecksumStore, error) {
	if numVectors < 0 || vecLen <= 0 {
		return nil, fmt.Errorf("ooc: invalid checksum store geometry: %d vectors of %d", numVectors, vecLen)
	}
	f, err := os.OpenFile(sidecarPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ooc: creating checksum sidecar: %w", err)
	}
	if err := f.Truncate(sidecarHeaderSize + int64(numVectors)*sidecarRecordSize); err != nil {
		f.Close()
		return nil, fmt.Errorf("ooc: sizing checksum sidecar: %w", err)
	}
	s := newChecksumStore(inner, f, numVectors, vecLen)
	if err := s.writeHeader(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

func newChecksumStore(inner Store, f *os.File, n, vecLen int) *ChecksumStore {
	return &ChecksumStore{
		inner: inner, f: f, n: n, vecLen: vecLen,
		sums: make([]uint64, n), gens: make([]uint64, n),
	}
}

// OpenChecksumStore loads an existing sidecar, validating that its
// header matches the given geometry and that its record table matches
// the header's checksum-of-checksums (a cleanly closed sidecar).
func OpenChecksumStore(inner Store, sidecarPath string, numVectors, vecLen int) (*ChecksumStore, error) {
	f, err := os.OpenFile(sidecarPath, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ooc: opening checksum sidecar: %w", err)
	}
	s := newChecksumStore(inner, f, numVectors, vecLen)
	hdr := make([]byte, sidecarHeaderSize)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("ooc: reading sidecar header: %w", err)
	}
	if string(hdr[:8]) != sidecarMagic {
		f.Close()
		return nil, fmt.Errorf("ooc: %s is not a checksum sidecar", sidecarPath)
	}
	hn := binary.LittleEndian.Uint64(hdr[8:])
	hl := binary.LittleEndian.Uint64(hdr[16:])
	if int(hn) != numVectors || int(hl) != vecLen {
		f.Close()
		return nil, fmt.Errorf("ooc: sidecar geometry %dx%d does not match store %dx%d",
			hn, hl, numVectors, vecLen)
	}
	gen := binary.LittleEndian.Uint64(hdr[24:])
	sos := binary.LittleEndian.Uint64(hdr[32:])
	recs := make([]byte, numVectors*sidecarRecordSize)
	if _, err := f.ReadAt(recs, sidecarHeaderSize); err != nil {
		f.Close()
		return nil, fmt.Errorf("ooc: reading sidecar records: %w", err)
	}
	for i := 0; i < numVectors; i++ {
		s.sums[i] = binary.LittleEndian.Uint64(recs[i*sidecarRecordSize:])
		s.gens[i] = binary.LittleEndian.Uint64(recs[i*sidecarRecordSize+8:])
	}
	s.gen.Store(gen)
	if got := s.sumOfSums(); got != sos {
		f.Close()
		return nil, fmt.Errorf("ooc: sidecar %s not cleanly closed: checksum-of-checksums %016x, header says %016x",
			sidecarPath, got, sos)
	}
	return s, nil
}

// writeHeader refreshes the sidecar header from the in-memory state.
func (s *ChecksumStore) writeHeader() error {
	hdr := make([]byte, sidecarHeaderSize)
	copy(hdr, sidecarMagic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(s.n))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(s.vecLen))
	binary.LittleEndian.PutUint64(hdr[24:], s.gen.Load())
	binary.LittleEndian.PutUint64(hdr[32:], s.sumOfSums())
	if _, err := s.f.WriteAt(hdr, 0); err != nil {
		return fmt.Errorf("ooc: writing sidecar header: %w", err)
	}
	return nil
}

// sumOfSums hashes the whole record table — the "checksum of checksums"
// a checkpoint manifest carries.
func (s *ChecksumStore) sumOfSums() uint64 {
	h := crc64.New(crcTable)
	var rec [sidecarRecordSize]byte
	for i := range s.sums {
		binary.LittleEndian.PutUint64(rec[0:], s.sums[i])
		binary.LittleEndian.PutUint64(rec[8:], s.gens[i])
		h.Write(rec[:])
	}
	return h.Sum64()
}

// ReadVector implements Store: read through, then verify.
func (s *ChecksumStore) ReadVector(vi int, dst []float64) error {
	if vi < 0 || vi >= s.n {
		return fmt.Errorf("ooc: checksum store read out of range: %d", vi)
	}
	if err := s.inner.ReadVector(vi, dst); err != nil {
		return err
	}
	if s.gens[vi] == 0 {
		// Never written: a fresh backing file reads zeros, which is fine.
		return nil
	}
	if got := vectorChecksum(dst); got != s.sums[vi] {
		s.corruptReads.Add(1)
		return &CorruptionError{Vector: vi, Want: s.sums[vi], Got: got}
	}
	return nil
}

// WriteVector implements Store: write through, then record the payload's
// checksum and a fresh generation tag in memory and in the sidecar. The
// checksum is computed from the caller's payload (the write intent), so
// a torn write underneath is caught by the next read.
func (s *ChecksumStore) WriteVector(vi int, src []float64) error {
	if vi < 0 || vi >= s.n {
		return fmt.Errorf("ooc: checksum store write out of range: %d", vi)
	}
	if err := s.inner.WriteVector(vi, src); err != nil {
		return err
	}
	sum := vectorChecksum(src)
	gen := s.gen.Add(1)
	s.sums[vi], s.gens[vi] = sum, gen
	var rec [sidecarRecordSize]byte
	binary.LittleEndian.PutUint64(rec[0:], sum)
	binary.LittleEndian.PutUint64(rec[8:], gen)
	if _, err := s.f.WriteAt(rec[:], sidecarHeaderSize+int64(vi)*sidecarRecordSize); err != nil {
		return fmt.Errorf("ooc: writing checksum record for vector %d: %w", vi, err)
	}
	return nil
}

// CorruptReads returns how many reads failed verification.
func (s *ChecksumStore) CorruptReads() int64 { return s.corruptReads.Load() }

// SetPrecision records the element precision ("f64" or "f32") of the
// vectors this store persists; it is carried in the manifest so a
// resumed run can refuse a store written at the other precision (see
// PrecisionMismatchError). The default "" reads as f64.
func (s *ChecksumStore) SetPrecision(p string) { s.precision = p }

// Precision returns the recorded element precision ("" means legacy
// f64).
func (s *ChecksumStore) Precision() string { return s.precision }

// Manifest returns the store's current manifest for external
// persistence (e.g. inside a checkpoint).
func (s *ChecksumStore) Manifest() Manifest {
	return Manifest{
		NumVectors: s.n,
		VectorLen:  s.vecLen,
		Generation: s.gen.Load(),
		SumOfSums:  s.sumOfSums(),
		Precision:  s.precision,
	}
}

// normPrecision maps the legacy empty precision tag to "f64".
func normPrecision(p string) string {
	if p == "" {
		return "f64"
	}
	return p
}

// VerifyManifest checks the store's current state against a previously
// persisted manifest, returning a descriptive error on any mismatch.
// A precision mismatch is reported as a typed *PrecisionMismatchError.
func (s *ChecksumStore) VerifyManifest(m Manifest) error {
	cur := s.Manifest()
	if normPrecision(cur.Precision) != normPrecision(m.Precision) {
		return &PrecisionMismatchError{Store: m.Precision, Run: normPrecision(cur.Precision)}
	}
	switch {
	case cur.NumVectors != m.NumVectors || cur.VectorLen != m.VectorLen:
		return fmt.Errorf("ooc: store geometry %dx%d does not match manifest %dx%d",
			cur.NumVectors, cur.VectorLen, m.NumVectors, m.VectorLen)
	case cur.Generation != m.Generation:
		return fmt.Errorf("ooc: store generation %d does not match manifest %d",
			cur.Generation, m.Generation)
	case cur.SumOfSums != m.SumOfSums:
		return fmt.Errorf("ooc: store checksum-of-checksums %016x does not match manifest %016x",
			cur.SumOfSums, m.SumOfSums)
	}
	return nil
}

// Verify scans every written vector against its recorded checksum and
// returns the indices that fail (nil when the store is clean). Reads go
// straight to the inner store, so Verify also exercises the medium.
func (s *ChecksumStore) Verify() ([]int, error) {
	buf := make([]float64, s.vecLen)
	var bad []int
	for vi := 0; vi < s.n; vi++ {
		if s.gens[vi] == 0 {
			continue
		}
		if err := s.inner.ReadVector(vi, buf); err != nil {
			return bad, err
		}
		if vectorChecksum(buf) != s.sums[vi] {
			bad = append(bad, vi)
		}
	}
	return bad, nil
}

// Sync flushes the sidecar (header refreshed from the current state) to
// stable storage, then syncs the inner store when it supports it — a
// checkpoint that persists this store's manifest must know the vectors
// it describes are durable too.
func (s *ChecksumStore) Sync() error {
	if err := s.writeHeader(); err != nil {
		return err
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("ooc: syncing sidecar: %w", err)
	}
	return SyncStore(s.inner)
}

// MemOverheadBytes reports the checksum tables (16 bytes per vector)
// plus whatever the inner store tracks.
func (s *ChecksumStore) MemOverheadBytes() int64 {
	return int64(s.n)*16 + StoreMemOverhead(s.inner)
}

// Unwrap implements Unwrapper.
func (s *ChecksumStore) Unwrap() Store { return s.inner }

// Close implements Store: it seals the sidecar (so OpenChecksumStore
// accepts it later) and closes the inner store.
func (s *ChecksumStore) Close() error {
	first := s.Sync()
	if err := s.f.Close(); err != nil && first == nil {
		first = err
	}
	if err := s.inner.Close(); err != nil && first == nil {
		first = err
	}
	return first
}
