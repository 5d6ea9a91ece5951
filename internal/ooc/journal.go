package ooc

// Write-back spill journal — the durability backstop for the remote
// tier. The tiered store's crash-safety story ("a dirty victim is
// written to the remote tier before its slot is reused") breaks down
// during a network outage: the push fails and the cache slot is needed
// NOW. Rather than latching an error and losing the newest copy of the
// vector, the eviction appends it to this journal — an append-only,
// CRC-32C-bound file in the cache directory — and the run keeps going. On
// recovery (a successful probe through the circuit breaker, or Sync)
// the journal is replayed to the remote tier, newest record per
// vector, and truncated once empty: zero lost write-backs.
//
// While a vector sits in the journal, the journal holds its
// authoritative newest copy (unless the cache re-dirties it, which
// supersedes the entry): reads consult the journal before fetching
// remote, and FetchCost prices journaled vectors as local.
//
// On-disk format (all little-endian):
//
//	header (16 B): magic "OOCSPL1\n" | uint32 numVectors | uint32 vecLen
//	record       : uint32 vi | uint32 count | uint64 seq
//	               count*8 B payload | uint32 CRC-32C(header+payload)
//
// Appends are fsynced. Superseded and replayed records are dropped from
// the in-memory index but stay in the file until it drains empty, at
// which point it is truncated back to the header. The index is the only
// reader: a journal file left by an earlier process is reset at open,
// because its records are that process's vectors and this one reads only
// what it wrote (a crashed outage-run restarts from a checkpoint and
// recomputes).

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
)

const (
	spillMagic      = "OOCSPL1\n"
	spillHeaderSize = 16
	spillRecHdrSize = 16
)

// SpillJournal absorbs dirty write-backs the remote tier cannot accept
// and replays them on recovery. Safe for concurrent use.
type SpillJournal struct {
	mu   sync.Mutex
	f    *os.File
	nvec int
	vlen int
	seq  uint64
	// live maps vi -> newest payload (its own copy). Bounded by the
	// dirty set of one outage; MemBytes charges it to the watchdog.
	live map[int][]float64

	appends, replayed, discards int64
	fileBytes                   int64
}

// OpenSpillJournal creates the journal at path, resetting whatever an
// earlier process left there to an empty, well-formed file.
func OpenSpillJournal(path string, numVectors, vecLen int) (*SpillJournal, error) {
	if numVectors < 1 || vecLen < 1 {
		return nil, fmt.Errorf("ooc: spill journal geometry %dx%d invalid", numVectors, vecLen)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ooc: opening spill journal: %w", err)
	}
	j := &SpillJournal{f: f, nvec: numVectors, vlen: vecLen}
	if err := j.reset(); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// reset truncates the journal to an empty, well-formed state.
func (j *SpillJournal) reset() error {
	j.live = make(map[int][]float64)
	j.seq = 0
	if err := j.f.Truncate(0); err != nil {
		return err
	}
	hdr := make([]byte, spillHeaderSize)
	copy(hdr, spillMagic)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(j.nvec))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(j.vlen))
	if _, err := j.f.WriteAt(hdr, 0); err != nil {
		return err
	}
	j.fileBytes = spillHeaderSize
	return j.f.Sync()
}

// Append absorbs data as the newest copy of vector vi. The record is
// fsynced before Append returns — from here on the journal, not the
// failed remote push, owns the vector's durability.
func (j *SpillJournal) Append(vi int, data []float64) error {
	if vi < 0 || vi >= j.nvec || len(data) != j.vlen {
		return fmt.Errorf("ooc: spill journal append vi=%d len=%d invalid", vi, len(data))
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	rec := make([]byte, spillRecHdrSize+j.vlen*8+4)
	binary.LittleEndian.PutUint32(rec[0:], uint32(vi))
	binary.LittleEndian.PutUint32(rec[4:], uint32(j.vlen))
	binary.LittleEndian.PutUint64(rec[8:], j.seq)
	for i, x := range data {
		binary.LittleEndian.PutUint64(rec[spillRecHdrSize+i*8:], math.Float64bits(x))
	}
	binary.LittleEndian.PutUint32(rec[len(rec)-4:], crc32c(rec[:len(rec)-4]))
	if _, err := j.f.WriteAt(rec, j.fileBytes); err != nil {
		return fmt.Errorf("ooc: spill journal append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("ooc: spill journal sync: %w", err)
	}
	j.fileBytes += int64(len(rec))
	j.seq++
	buf := make([]float64, j.vlen)
	copy(buf, data)
	j.live[vi] = buf
	j.appends++
	return nil
}

// Snapshot copies the journaled payload of vi into dst, reporting
// whether one exists.
func (j *SpillJournal) Snapshot(vi int, dst []float64) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	buf, ok := j.live[vi]
	if ok {
		copy(dst, buf)
	}
	return ok
}

// Has reports whether vi has a pending journaled payload.
func (j *SpillJournal) Has(vi int) bool {
	j.mu.Lock()
	_, ok := j.live[vi]
	j.mu.Unlock()
	return ok
}

// Pending returns the journaled vector indices in ascending order.
func (j *SpillJournal) Pending() []int {
	j.mu.Lock()
	vis := make([]int, 0, len(j.live))
	for vi := range j.live {
		vis = append(vis, vi)
	}
	j.mu.Unlock()
	sort.Ints(vis)
	return vis
}

// Depth reports how many vectors are pending replay.
func (j *SpillJournal) Depth() int {
	j.mu.Lock()
	n := len(j.live)
	j.mu.Unlock()
	return n
}

// Remove marks vi replayed (its bytes reached the remote tier). When
// the last pending vector drains, the file is truncated back to its
// header — the observable "journal replayed to empty" state.
func (j *SpillJournal) Remove(vi int) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.live[vi]; !ok {
		return nil
	}
	delete(j.live, vi)
	j.replayed++
	if len(j.live) == 0 {
		return j.reset()
	}
	return nil
}

// Discard drops vi's entry without counting a replay: a newer copy of
// the vector went dirty in the cache (or was pushed remote directly),
// superseding the journaled bytes.
func (j *SpillJournal) Discard(vi int) {
	j.mu.Lock()
	if _, ok := j.live[vi]; ok {
		delete(j.live, vi)
		j.discards++
		if len(j.live) == 0 {
			j.reset()
		}
	}
	j.mu.Unlock()
}

// SpillStats is a snapshot of the journal counters.
type SpillStats struct {
	// Appends counts write-backs absorbed; Replayed those pushed to the
	// remote tier on recovery; Discards entries superseded before
	// replay. Depth is the current pending count, FileBytes the on-disk
	// size (header-only when empty).
	Appends, Replayed, Discards int64
	Depth                       int
	FileBytes                   int64
}

// Stats snapshots the journal counters.
func (j *SpillJournal) Stats() SpillStats {
	j.mu.Lock()
	s := SpillStats{
		Appends:   j.appends,
		Replayed:  j.replayed,
		Discards:  j.discards,
		Depth:     len(j.live),
		FileBytes: j.fileBytes,
	}
	j.mu.Unlock()
	return s
}

// MemBytes reports the heap held by the in-memory index.
func (j *SpillJournal) MemBytes() int64 {
	j.mu.Lock()
	n := int64(len(j.live)) * (48 + int64(j.vlen)*8)
	j.mu.Unlock()
	return n
}

// Close closes the journal file.
func (j *SpillJournal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}
