package ooc

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"oocphylo/internal/record"
)

// modelOp is one call of a manager model sequence.
type modelOp struct {
	kind string // get, write, refuse, tear, resize, flush
	vi   int
	n    int // the record length a write stamps; the slot count of a resize
	pins []int
}

func (o modelOp) String() string {
	switch o.kind {
	case "flush":
		return "flush"
	case "resize":
		return fmt.Sprintf("resize(%d)", o.n)
	case "write":
		return fmt.Sprintf("write(%d, len %d, pins %v)", o.vi, o.n, o.pins)
	case "refuse", "tear":
		return fmt.Sprintf("%s(%d)", o.kind, o.vi)
	}
	return fmt.Sprintf("%s(%d, pins %v)", o.kind, o.vi, o.pins)
}

// TestManagerModel runs seeded sequences of demand reads and writes
// with pins, resizes, flushes, refused reads and torn writes, against a
// model of what each vector holds. Every write stamps a drawn record
// length, full width included; a refusal makes the next store read of
// its vector fail transiently, and a tear makes the next store write of
// its vector land torn. After every call: a read returns the last
// write's record at its length, or — once per refusal, on the refused
// vector — a transient *VectorReadError, or — on a vector whose stored
// copy is torn and which is not resident — a corruption
// *VectorReadError, which it must return if the writer holds no record
// of the vector either, and keeps returning until a write-intent access
// rewrites it; a write, a resize or a flush returns no error; a vector
// pinned while resident is still resident and its slice unmoved; and
// the pool holds no more than its budget. Over a MemStore, every read
// checked against the manager's table. A failure prints the seed and
// the shortest prefix of the sequence that fails.
func TestManagerModel(t *testing.T) {
	const n, vecLen, seqs, steps = 14, 24, 80, 300
	for seed := int64(1); seed <= seqs; seed++ {
		ops := modelOps(seed, n, vecLen, steps)
		at, err := runModel(ops, n, vecLen)
		if err != nil {
			var b strings.Builder
			for i, o := range ops[:at+1] {
				fmt.Fprintf(&b, "\n  %3d %v", i, o)
			}
			t.Fatalf("seed %d: op %d: %v\nshortest failing prefix:%s", seed, at, err, b.String())
		}
	}
}

// modelStore fails the next read of each vector refuse armed with a
// transient error, and lands the next write of each vector tear armed
// torn: its second half never reaches the store, which reads zeros
// there. torn marks the vectors whose stored copy is such a write.
type modelStore struct {
	Store
	mu                   sync.Mutex
	refused, tears, torn map[int]bool
}

func newModelStore(n, vecLen int) *modelStore {
	return &modelStore{Store: NewMemStore(n, vecLen), refused: map[int]bool{}, tears: map[int]bool{}, torn: map[int]bool{}}
}

func (s *modelStore) refuse(vi int) { s.arm(s.refused, vi) }
func (s *modelStore) tear(vi int)   { s.arm(s.tears, vi) }

func (s *modelStore) arm(m map[int]bool, vi int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m[vi] = true
}

// isTorn reports whether vi's stored copy is a torn write.
func (s *modelStore) isTorn(vi int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.torn[vi]
}

func (s *modelStore) ReadVector(vi int, dst []float64) error {
	s.mu.Lock()
	refused := s.refused[vi]
	delete(s.refused, vi)
	s.mu.Unlock()
	if refused {
		return fmt.Errorf("read of vector %d refused: %w", vi, ErrTransientIO)
	}
	return s.Store.ReadVector(vi, dst)
}

func (s *modelStore) WriteVector(vi int, src []float64) error {
	s.mu.Lock()
	tear := s.tears[vi]
	delete(s.tears, vi)
	s.torn[vi] = tear
	s.mu.Unlock()
	if tear {
		src = slices.Clone(src)
		clear(src[len(src)/2:])
	}
	return s.Store.WriteVector(vi, src)
}

// modelOps draws a sequence: pins are vector indices the run pins only
// if they are resident when their call comes.
func modelOps(seed int64, n, vecLen, steps int) []modelOp {
	rng := rand.New(rand.NewSource(seed))
	written := make([]bool, n)
	var ops []modelOp
	for len(ops) < steps {
		o := modelOp{vi: rng.Intn(n)}
		for k := rng.Intn(3); k > 0; k-- {
			if p := rng.Intn(n); p != o.vi {
				o.pins = append(o.pins, p)
			}
		}
		switch r := rng.Intn(20); {
		case r == 0:
			// A flush names and pins no vector: its barrier may drop one.
			o.kind, o.vi, o.pins = "flush", -1, nil
		case r == 1:
			// A resize names and pins no vector.
			o.kind, o.n, o.vi, o.pins = "resize", MinSlots+rng.Intn(5), -1, nil
		case r == 2:
			o.kind, o.pins = "refuse", nil
		case r == 3:
			o.kind, o.pins = "tear", nil
		case r < 12 && written[o.vi]:
			o.kind = "get"
		default:
			o.kind, o.n = "write", 1+rng.Intn(vecLen)
			if rng.Intn(4) == 0 {
				o.n = vecLen
			}
			written[o.vi] = true
		}
		ops = append(ops, o)
	}
	return ops
}

// runModel replays ops on a fresh manager and returns the index of the
// first op after which the manager disagrees with the model.
func runModel(ops []modelOp, n, vecLen int) (int, error) {
	store := newModelStore(n, vecLen)
	m, err := NewManager(Config{
		NumVectors: n, VectorLen: vecLen, Slots: 5, Strategy: NewLRU(n),
		ReadSkipping: true, Store: store,
	})
	if err != nil {
		return 0, err
	}
	defer m.Close()
	gen, length := make([]int, n), make([]int, n)
	// mayFail marks the vectors a refusal may still fail a read of.
	mayFail := make([]bool, n)
	val := func(vi, i int) float64 { return float64(vi*100000 + gen[vi]*100 + i) }
	// live holds the slices still in their lifetime: a later call that
	// neither names nor pins a vector ends its slice's.
	live := make(map[int][]float64)
	check := func(vi int, v []float64) error {
		if len(v) < length[vi] {
			return fmt.Errorf("vector %d: %d floats of a %d-float record", vi, len(v), length[vi])
		}
		for i := 0; i < length[vi]; i++ {
			if v[i] != val(vi, i) {
				return fmt.Errorf("vector %d [%d] = %v, want %v", vi, i, v[i], val(vi, i))
			}
		}
		return nil
	}
	for at, o := range ops {
		var pins []int
		for _, p := range o.pins {
			if m.Resident(p) {
				pins = append(pins, p)
			}
		}
		for u := range live {
			if o.kind != "flush" && u != o.vi && !slices.Contains(pins, u) {
				delete(live, u)
			}
		}
		switch o.kind {
		case "flush":
			err = m.Flush()
		case "resize":
			err = m.Resize(o.n)
		case "refuse":
			store.refuse(o.vi)
			mayFail[o.vi] = true
		case "tear":
			store.tear(o.vi)
		case "get":
			// A read of a torn copy fails unless vi is resident or the
			// writer still holds its record, which serves it whole.
			resident, pending := m.Resident(o.vi), m.pipe.pending[o.vi] != nil
			var v []float64
			v, err = m.Vector(o.vi, false, pins...)
			var re *VectorReadError
			if errors.As(err, &re) && re.Vi == o.vi && IsTransient(err) && mayFail[o.vi] {
				mayFail[o.vi], err = false, nil
				break
			}
			torn := !resident && store.isTorn(o.vi)
			if errors.As(err, &re) && re.Vi == o.vi && IsCorruption(err) && torn {
				err = nil
				break
			}
			if err == nil && torn && !pending {
				err = errors.New("a read of a torn copy returned no error")
			}
			if err == nil {
				if len(v) != length[o.vi] {
					err = fmt.Errorf("read %d floats of a %d-float record", len(v), length[o.vi])
				} else {
					err = check(o.vi, v)
				}
				live[o.vi] = v
			}
		case "write":
			var v []float64
			if v, err = m.Vector(o.vi, true, pins...); err == nil {
				if len(v) != vecLen {
					err = fmt.Errorf("write-intent slice of %d floats, want %d", len(v), vecLen)
					break
				}
				gen[o.vi]++
				length[o.vi] = o.n
				for i := 0; i < o.n; i++ {
					v[i] = val(o.vi, i)
				}
				if o.n < vecLen {
					record.Stamp(v, o.n)
				}
				live[o.vi] = v
			}
		}
		if err != nil {
			return at, err
		}
		for _, p := range pins {
			if !m.Resident(p) {
				return at, fmt.Errorf("pinned vector %d was evicted", p)
			}
			if v, ok := live[p]; ok {
				if err := check(p, v); err != nil {
					return at, fmt.Errorf("pinned %v", err)
				}
			}
		}
		if err := m.CheckInvariants(); err != nil {
			return at, err
		}
		if now, _ := m.HeldBytes(); now > int64(m.Slots()*vecLen*8) {
			return at, fmt.Errorf("the pool holds %d bytes of a %d-byte budget", now, m.Slots()*vecLen*8)
		}
	}
	return len(ops) - 1, nil
}
