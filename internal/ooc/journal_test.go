package ooc

import (
	"os"
	"path/filepath"
	"testing"
)

func journalVec(vlen, seed int) []float64 {
	v := make([]float64, vlen)
	for i := range v {
		v[i] = float64(seed*100 + i)
	}
	return v
}

func openTestJournal(t *testing.T, dir string, nvec, vlen int) *SpillJournal {
	t.Helper()
	j, err := OpenSpillJournal(filepath.Join(dir, "spill.jrnl"), nvec, vlen)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestSpillJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, dir, 8, 4)
	defer j.Close()

	if j.Depth() != 0 || j.Has(3) {
		t.Fatal("fresh journal not empty")
	}
	for _, vi := range []int{3, 1, 5} {
		if err := j.Append(vi, journalVec(4, vi)); err != nil {
			t.Fatal(err)
		}
	}
	// Re-append vi 3 with newer bytes: newest wins.
	newest := journalVec(4, 42)
	if err := j.Append(3, newest); err != nil {
		t.Fatal(err)
	}
	if got := j.Pending(); len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Fatalf("Pending = %v, want [1 3 5]", got)
	}
	dst := make([]float64, 4)
	if !j.Snapshot(3, dst) {
		t.Fatal("Snapshot(3) missing")
	}
	for i := range newest {
		if dst[i] != newest[i] {
			t.Fatalf("pos %d: %v != %v (newest append must win)", i, dst[i], newest[i])
		}
	}
	if j.Snapshot(0, dst) {
		t.Error("Snapshot of absent vector claimed success")
	}
	s := j.Stats()
	if s.Appends != 4 || s.Depth != 3 || s.Replayed != 0 {
		t.Errorf("stats = %+v, want 4 appends / depth 3", s)
	}
	// Invalid appends are rejected outright.
	if err := j.Append(-1, journalVec(4, 0)); err == nil {
		t.Error("negative vi accepted")
	}
	if err := j.Append(0, journalVec(3, 0)); err == nil {
		t.Error("short payload accepted")
	}
}

// checkReopenResets appends under geometry 8x4, closes, lets damage
// loose on the file and reopens at vector length vlen: the journal's
// records were the vectors of the process that appended them, so the
// reopen must come up empty with the file back at its header, and new
// appends must land on that clean boundary.
func checkReopenResets(t *testing.T, vlen int, damage func(path string, size int64) error) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "spill.jrnl")
	j := openTestJournal(t, dir, 8, 4)
	j.Append(2, journalVec(4, 2))
	j.Append(6, journalVec(4, 6))
	j.Close()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if damage != nil {
		if err := damage(path, info.Size()); err != nil {
			t.Fatal(err)
		}
	}

	j2 := openTestJournal(t, dir, 8, vlen)
	defer j2.Close()
	if j2.Depth() != 0 || j2.Has(2) {
		t.Fatalf("reopened journal holds %v from the earlier process", j2.Pending())
	}
	if info, err = os.Stat(path); err != nil || info.Size() != spillHeaderSize {
		t.Fatalf("reopened journal is %d bytes (err %v), want header-only %d", info.Size(), err, spillHeaderSize)
	}
	if err := j2.Append(3, journalVec(vlen, 3)); err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, vlen)
	if !j2.Snapshot(3, dst) || dst[0] != journalVec(vlen, 3)[0] {
		t.Error("append after reopen not served back")
	}
}

// A cleanly closed journal with pending records.
func TestSpillJournalReopenResets(t *testing.T) { checkReopenResets(t, 4, nil) }

// A crashed process's torn final record goes with everything else.
func TestSpillJournalCrashTailTruncated(t *testing.T) {
	checkReopenResets(t, 4, func(path string, size int64) error { return os.Truncate(path, size-5) })
}

// So does a record whose payload rotted on disk.
func TestSpillJournalCorruptRecordDropped(t *testing.T) {
	checkReopenResets(t, 4, func(path string, size int64) error {
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			return err
		}
		defer f.Close()
		_, err = f.WriteAt([]byte{0xFF}, size-(4*8+8)) // first payload byte of the last record
		return err
	})
}

// Same path, different geometry.
func TestSpillJournalGeometryMismatchResets(t *testing.T) { checkReopenResets(t, 6, nil) }

func TestSpillJournalDrainTruncatesToHeader(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spill.jrnl")
	j := openTestJournal(t, dir, 8, 4)
	defer j.Close()
	for vi := 0; vi < 3; vi++ {
		j.Append(vi, journalVec(4, vi))
	}
	for vi := 0; vi < 3; vi++ {
		if err := j.Remove(vi); err != nil {
			t.Fatal(err)
		}
	}
	if j.Depth() != 0 {
		t.Fatalf("depth after drain = %d", j.Depth())
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != spillHeaderSize {
		t.Errorf("drained journal is %d bytes, want header-only %d", info.Size(), spillHeaderSize)
	}
	s := j.Stats()
	if s.Replayed != 3 || s.FileBytes != spillHeaderSize {
		t.Errorf("stats after drain = %+v", s)
	}
	// Removing an absent vector is a no-op, not an error.
	if err := j.Remove(7); err != nil {
		t.Fatal(err)
	}
}

func TestSpillJournalDiscardDoesNotCountReplay(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, dir, 8, 4)
	defer j.Close()
	j.Append(4, journalVec(4, 4))
	j.Discard(4)
	s := j.Stats()
	if s.Depth != 0 || s.Replayed != 0 || s.Discards != 1 {
		t.Errorf("stats after discard = %+v, want depth 0, 0 replayed, 1 discard", s)
	}
	j.Discard(4) // idempotent
	if s := j.Stats(); s.Discards != 1 {
		t.Errorf("double discard counted: %+v", s)
	}
}
