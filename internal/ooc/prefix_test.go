package ooc

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"oocphylo/internal/record"
)

// recStore sits between the manager and ChecksumStore. Every record the
// test writes names its own length in its first word, so recStore can
// check each write-back moves exactly that record, whenever the
// pipeline gets to it. hold/release park writes to keep one queued.
type recStore struct {
	Store

	mu          sync.Mutex
	gate        chan struct{}
	vecLen      int
	bytes       int64 // record bytes written
	short, full int   // records written shorter than / as wide as a vector
	bad         []string
}

func (r *recStore) hold() {
	r.mu.Lock()
	r.gate = make(chan struct{})
	r.mu.Unlock()
}

func (r *recStore) release() {
	r.mu.Lock()
	close(r.gate)
	r.gate = nil
	r.mu.Unlock()
}

func (r *recStore) WriteVector(vi int, src []float64) error {
	r.mu.Lock()
	gate := r.gate
	r.mu.Unlock()
	if gate != nil {
		<-gate
	}
	r.mu.Lock()
	if want := int(src[0]); len(src) != want {
		r.bad = append(r.bad, fmt.Sprintf("vector %d: wrote %d floats of a %d-float record", vi, len(src), want))
	}
	r.bytes += int64(len(src)) * 8
	if len(src) < r.vecLen {
		r.short++
	} else {
		r.full++
	}
	r.mu.Unlock()
	return r.Store.WriteVector(vi, src)
}

// TestPrefixRecords runs vectors whose slots carry records of varying
// length (and full vectors with no marker) through a manager over
// ChecksumStore(FileStore), sync and async, along every path a record
// travels: eviction and demand read, a joined prefetch, a read served
// from a queued write-back, a Resize shrink and Flush. Every record
// reads back bit-exact at its own length (the checksum layer refuses any
// other), each write-back moves exactly its record, and BytesWritten is
// the sum of the records written.
func TestPrefixRecords(t *testing.T) {
	const n, vecLen, slots = 12, 16, 4
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			file, err := NewFileStore(filepath.Join(t.TempDir(), "v.bin"), n, vecLen)
			if err != nil {
				t.Fatal(err)
			}
			cs, err := NewChecksumStore(file, "", n, vecLen)
			if err != nil {
				t.Fatal(err)
			}
			defer cs.Close()
			rec := &recStore{Store: cs, vecLen: vecLen}
			m, err := NewManager(Config{
				NumVectors: n, VectorLen: vecLen, Slots: slots, Strategy: NewLRU(n),
				ReadSkipping: true, Store: rec, Async: async,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()

			// gen[vi] is the generation vi holds. A record's length is
			// drawn from (vi, gen), 1 to vecLen; a full one has no marker.
			gen := make([]int, n)
			length := func(vi int) int { return 1 + (7*vi+3*gen[vi])%vecLen }
			val := func(vi, i int) float64 { return float64(vi*1000 + gen[vi]*100 + i) }
			fill := func(vi int) {
				t.Helper()
				v, err := m.Vector(vi, true)
				if err != nil {
					t.Fatal(err)
				}
				gen[vi]++
				l := length(vi)
				v[0] = float64(l)
				for i := 1; i < l; i++ {
					v[i] = val(vi, i)
				}
				if l < vecLen {
					record.Stamp(v, l)
				}
			}
			check := func(what string, vi int, v []float64) {
				t.Helper()
				l := length(vi)
				if v[0] != float64(l) {
					t.Fatalf("%s: vector %d names a %v-float record, want %d", what, vi, v[0], l)
				}
				for i := 1; i < l; i++ {
					if v[i] != val(vi, i) {
						t.Fatalf("%s: vector %d [%d] = %v, want %v", what, vi, i, v[i], val(vi, i))
					}
				}
			}
			read := func(what string, vi int) {
				t.Helper()
				v, err := m.Vector(vi, false)
				if err != nil {
					t.Fatalf("%s: vector %d: %v", what, vi, err)
				}
				check(what, vi, v)
			}

			for vi := 0; vi < n; vi++ {
				fill(vi)
			}
			for vi := 0; vi < n; vi++ {
				read("demand read", vi)
			}

			// A prefetch of an evicted vector, joined by the demand read.
			if err := m.Prefetch(0); err != nil {
				t.Fatal(err)
			}
			read("joined prefetch", 0)
			if ps := m.PipelineStats(); async && ps.JoinedFetches == 0 {
				t.Errorf("the prefetch was never joined: %+v", ps)
			}

			// A new generation, so every vector's record length moves.
			for vi := 0; vi < n; vi++ {
				fill(vi)
			}
			for vi := n - 1; vi >= 0; vi-- {
				read("second generation", vi)
			}

			// Read-through: vector 5 is dirty when clean reads push it out,
			// and its write-back is held in the queue when it is read.
			if err := m.Flush(); err != nil {
				t.Fatal(err)
			}
			if async {
				rec.hold()
			}
			fill(5)
			// The pool holds records, so how many reads it takes depends on
			// their lengths; LRU gets to 5 within a lap of the others.
			pushOut := func() {
				t.Helper()
				for k := 0; k < 2*n && m.Resident(5); k++ {
					if vi := (6 + k) % n; vi != 5 {
						read("clean read", vi)
					}
				}
				if m.Resident(5) {
					if async {
						rec.release()
					}
					t.Fatal("vector 5 is still resident; the read-through is vacuous")
				}
			}
			pushOut()
			read("read-through", 5)
			if async {
				if ps := m.PipelineStats(); ps.WriteQueueHits == 0 {
					t.Errorf("vector 5 was not read from the write queue: %+v", ps)
				}
				rec.release()
			}
			// Rewritten and flushed past the queue, then pushed out clean:
			// a read must find the flushed record, not the older buffer.
			fill(5)
			if err := m.Flush(); err != nil {
				t.Fatal(err)
			}
			pushOut()
			read("after flush", 5)

			// A shrink evicts dirty residents; Flush writes the rest. Every
			// vector is filled first, so every resident is dirty.
			for vi := 0; vi < n; vi++ {
				fill(vi)
			}
			writes := m.Stats().Writes
			if err := m.Resize(slots - 1); err != nil {
				t.Fatal(err)
			}
			if m.Stats().Writes == writes {
				t.Fatal("the shrink wrote nothing back")
			}
			if m.Resident(0) {
				t.Fatal("the shrink kept the LRU vector 0")
			}
			read("after shrink", 0)
			for _, vi := range []int{2, 3, 4} {
				fill(vi)
			}
			if err := m.Flush(); err != nil {
				t.Fatal(err)
			}

			// The store holds every vector's newest record.
			for vi := 0; vi < n; vi++ {
				v := make([]float64, length(vi))
				if err := cs.ReadVector(vi, v); err != nil {
					t.Fatalf("stored vector %d: %v", vi, err)
				}
				check("store", vi, v)
			}
			rec.mu.Lock()
			defer rec.mu.Unlock()
			for _, b := range rec.bad {
				t.Error(b)
			}
			if st := m.Stats(); st.BytesWritten != rec.bytes {
				t.Errorf("BytesWritten = %d, the records written total %d", st.BytesWritten, rec.bytes)
			}
			if rec.short == 0 || rec.full == 0 {
				t.Errorf("%d short and %d full records written; want both", rec.short, rec.full)
			}
			if cr := m.PipelineStats().CorruptReads; cr != 0 {
				t.Errorf("%d reads failed verification", cr)
			}
		})
	}
}
