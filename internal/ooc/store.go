// Package ooc implements the paper's contribution: an out-of-core
// (external-memory) manager for ancestral probability vectors. All n
// vectors live in a backing Store (a single binary file in the paper,
// §3.2); only m = f·n RAM slots are allocated, each exactly one vector
// wide — the vector is the logical page, so every transfer is a large
// contiguous I/O far above the hardware block size (§3.1). Every vector
// access goes through Manager.Vector, the analogue of RAxML's
// getxvector(): it transparently swaps vectors between slots and the
// store under a pluggable replacement strategy (Random, LRU, LFU,
// Topological — §3.3), honours per-call pins so the vectors feeding the
// current likelihood operation are never evicted, and skips the
// swap-in read when the caller declares write-only first use ("read
// skipping", §3.4).
package ooc

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"sync"
	"unsafe"

	"oocphylo/internal/iosim"
)

// Store is the backing storage for ancestral vectors: vector vi
// occupies the fixed region [vi*vecLen, (vi+1)*vecLen) in float64 units
// (the paper's single binary file with per-node offsets).
//
// A vector's record is what its last write wrote, and a write may cover
// only a prefix of the region: 1 to vecLen float64s from its start (the
// Manager writes the prefix the engine stamped, see package record). A
// read asks for the length last written; what a read of any other
// length returns is undefined. The manager reads a vector only at the
// length it recorded, and checks what it reads (see vecEntry).
//
// Every Store in this package is safe for concurrent calls that touch
// distinct vectors (and for concurrent reads of the same vector) — the
// contract the asynchronous pipeline relies on. Callers must not issue
// concurrent writes (or a write racing a read) on the SAME vector; the
// pipeline's single FIFO writer and read-after-write queue guarantee
// it never does.
type Store interface {
	// ReadVector fills dst with vector vi's stored payload.
	ReadVector(vi int, dst []float64) error
	// WriteVector persists src as vector vi's payload.
	WriteVector(vi int, src []float64) error
	// Close releases resources.
	Close() error
}

// hostLittleEndian reports whether the host stores multi-byte values
// little-endian, in which case the file codec below is a zero-copy
// reinterpretation instead of a per-element conversion loop.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// f64Bytes reinterprets v's backing array as bytes without copying.
// Only valid as an I/O buffer on little-endian hosts (the on-disk
// format is little-endian regardless of host order).
func f64Bytes(v []float64) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*8)
}

// MemStore is an in-RAM Store used by tests and by simulations where
// only the I/O accounting, not real disk traffic, matters.
type MemStore struct {
	vecLen int
	data   [][]float64
}

// NewMemStore creates an in-memory store for numVectors vectors.
func NewMemStore(numVectors, vecLen int) *MemStore {
	s := &MemStore{vecLen: vecLen, data: make([][]float64, numVectors)}
	return s
}

// checkRecord validates one record against a store's geometry: vi in
// [0, n) and a length of 1 to vecLen float64s.
func checkRecord(store, op string, n, vecLen, vi, length int) error {
	if vi < 0 || vi >= n {
		return fmt.Errorf("ooc: %s %s out of range: %d", store, op, vi)
	}
	if length < 1 || length > vecLen {
		return fmt.Errorf("ooc: %s %s size %d, want 1..%d", store, op, length, vecLen)
	}
	return nil
}

// ReadVector implements Store. Never-written vectors read as zeros,
// like a freshly created binary file.
func (s *MemStore) ReadVector(vi int, dst []float64) error {
	if err := checkRecord("memstore", "read", len(s.data), s.vecLen, vi, len(dst)); err != nil {
		return err
	}
	if s.data[vi] == nil {
		for i := range dst {
			dst[i] = 0
		}
		return nil
	}
	copy(dst, s.data[vi])
	return nil
}

// WriteVector implements Store.
func (s *MemStore) WriteVector(vi int, src []float64) error {
	if err := checkRecord("memstore", "write", len(s.data), s.vecLen, vi, len(src)); err != nil {
		return err
	}
	if s.data[vi] == nil {
		s.data[vi] = make([]float64, s.vecLen)
	}
	copy(s.data[vi], src)
	return nil
}

// Close implements Store.
func (s *MemStore) Close() error { return nil }

// FileStore keeps all vectors contiguously in one binary file — the
// layout of the paper's proof-of-concept implementation (Figure 1).
// Positioned reads and writes (pread/pwrite) plus per-call codec
// buffers make it safe for concurrent calls on distinct vectors, as
// the async pipeline requires.
type FileStore struct {
	f      *os.File
	vecLen int
	n      int
	// codecs pools conversion buffers for the big-endian fallback path;
	// unused (and unallocated) on little-endian hosts, where the
	// float64 slice itself is the I/O buffer.
	codecs sync.Pool
}

// NewFileStore creates (truncating) a backing file sized for numVectors
// vectors of vecLen float64s each.
func NewFileStore(path string, numVectors, vecLen int) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ooc: creating backing file: %w", err)
	}
	if err := f.Truncate(int64(numVectors) * int64(vecLen) * 8); err != nil {
		f.Close()
		return nil, fmt.Errorf("ooc: sizing backing file: %w", err)
	}
	s := &FileStore{f: f, vecLen: vecLen, n: numVectors}
	s.codecs.New = func() any {
		b := make([]byte, vecLen*8)
		return &b
	}
	return s, nil
}

// ReadVector implements Store via a single positioned read.
func (s *FileStore) ReadVector(vi int, dst []float64) error {
	if err := checkRecord("filestore", "read", s.n, s.vecLen, vi, len(dst)); err != nil {
		return err
	}
	off := int64(vi) * int64(s.vecLen) * 8
	if hostLittleEndian {
		// Host order matches the on-disk format: read straight into the
		// caller's float64 buffer, no conversion pass.
		if _, err := s.f.ReadAt(f64Bytes(dst), off); err != nil {
			return fmt.Errorf("ooc: reading vector %d: %w", vi, err)
		}
		return nil
	}
	bp := s.codecs.Get().(*[]byte)
	defer s.codecs.Put(bp)
	buf := (*bp)[:len(dst)*8]
	if _, err := s.f.ReadAt(buf, off); err != nil {
		return fmt.Errorf("ooc: reading vector %d: %w", vi, err)
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
	}
	return nil
}

// WriteVector implements Store via a single positioned write.
func (s *FileStore) WriteVector(vi int, src []float64) error {
	if err := checkRecord("filestore", "write", s.n, s.vecLen, vi, len(src)); err != nil {
		return err
	}
	off := int64(vi) * int64(s.vecLen) * 8
	if hostLittleEndian {
		if _, err := s.f.WriteAt(f64Bytes(src), off); err != nil {
			return fmt.Errorf("ooc: writing vector %d: %w", vi, err)
		}
		return nil
	}
	bp := s.codecs.Get().(*[]byte)
	defer s.codecs.Put(bp)
	buf := (*bp)[:len(src)*8]
	for i, v := range src {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
	}
	if _, err := s.f.WriteAt(buf, off); err != nil {
		return fmt.Errorf("ooc: writing vector %d: %w", vi, err)
	}
	return nil
}

// Close implements Store.
func (s *FileStore) Close() error { return s.f.Close() }

// SimStore wraps a Store and charges every transfer to a simulated
// device clock. It is how the benchmark harness prices out-of-core I/O
// without moving real gigabytes.
type SimStore struct {
	Inner  Store
	Device iosim.Device
	Clock  *iosim.Clock
}

// NewSimStore wraps inner with accounting on clock for device dev.
func NewSimStore(inner Store, dev iosim.Device, clock *iosim.Clock) *SimStore {
	return &SimStore{Inner: inner, Device: dev, Clock: clock}
}

func (s *SimStore) charge(bytes int64) { s.Clock.Charge(s.Device, bytes) }

// ReadVector implements Store.
func (s *SimStore) ReadVector(vi int, dst []float64) error {
	s.charge(int64(len(dst)) * 8)
	return s.Inner.ReadVector(vi, dst)
}

// WriteVector implements Store.
func (s *SimStore) WriteVector(vi int, src []float64) error {
	s.charge(int64(len(src)) * 8)
	return s.Inner.WriteVector(vi, src)
}

// Close implements Store.
func (s *SimStore) Close() error { return s.Inner.Close() }

// Unwrap implements Unwrapper.
func (s *SimStore) Unwrap() Store { return s.Inner }
