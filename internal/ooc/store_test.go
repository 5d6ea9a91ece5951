package ooc

import (
	"math"
	"path/filepath"
	"testing"
	"time"

	"oocphylo/internal/iosim"
)

func TestMemStoreRoundTrip(t *testing.T) {
	s := NewMemStore(3, 4)
	src := []float64{1.5, -2.25, math.Pi, 0}
	if err := s.WriteVector(1, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 4)
	if err := s.ReadVector(1, dst); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("round trip lost data: %v", dst)
		}
	}
	// Unwritten vectors read as zeros.
	if err := s.ReadVector(2, dst); err != nil {
		t.Fatal(err)
	}
	for _, v := range dst {
		if v != 0 {
			t.Fatal("fresh vector not zero")
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMemStoreErrors(t *testing.T) {
	s := NewMemStore(2, 3)
	buf := make([]float64, 3)
	if err := s.ReadVector(2, buf); err == nil {
		t.Error("out of range read must fail")
	}
	if err := s.WriteVector(-1, buf); err == nil {
		t.Error("negative write must fail")
	}
	if err := s.ReadVector(0, make([]float64, 4)); err == nil {
		t.Error("oversized read must fail")
	}
	if err := s.WriteVector(0, make([]float64, 4)); err == nil {
		t.Error("oversized write must fail")
	}
	if err := s.WriteVector(0, nil); err == nil {
		t.Error("empty write must fail")
	}
	// A record may be a prefix of the vector's region.
	if err := s.WriteVector(1, []float64{7, 8}); err != nil {
		t.Fatal(err)
	}
	if err := s.ReadVector(1, buf[:2]); err != nil || buf[0] != 7 || buf[1] != 8 {
		t.Errorf("short record read back %v, err %v", buf[:2], err)
	}
}

func TestFileStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vectors.bin")
	s, err := NewFileStore(path, 5, 6)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for vi := 0; vi < 5; vi++ {
		src := make([]float64, 6)
		for j := range src {
			src[j] = float64(vi) + float64(j)/10 + 1e-9
		}
		if err := s.WriteVector(vi, src); err != nil {
			t.Fatal(err)
		}
	}
	for vi := 4; vi >= 0; vi-- {
		dst := make([]float64, 6)
		if err := s.ReadVector(vi, dst); err != nil {
			t.Fatal(err)
		}
		for j := range dst {
			want := float64(vi) + float64(j)/10 + 1e-9
			if dst[j] != want {
				t.Fatalf("vector %d pos %d: %v != %v", vi, j, dst[j], want)
			}
		}
	}
	// Special values survive the binary encoding.
	special := []float64{math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.MaxFloat64}
	if err := s.WriteVector(2, special); err != nil {
		t.Fatal(err)
	}
	back := make([]float64, 6)
	if err := s.ReadVector(2, back); err != nil {
		t.Fatal(err)
	}
	for i := range special {
		if back[i] != special[i] {
			t.Fatalf("special value %v lost: %v", special[i], back[i])
		}
	}
}

func TestFileStoreErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.bin")
	s, err := NewFileStore(path, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	buf := make([]float64, 3)
	if err := s.ReadVector(5, buf); err == nil {
		t.Error("out of range must fail")
	}
	if err := s.WriteVector(0, make([]float64, 4)); err == nil {
		t.Error("oversized write must fail")
	}
	if err := s.ReadVector(0, nil); err == nil {
		t.Error("empty read must fail")
	}
	if _, err := NewFileStore(filepath.Join(t.TempDir(), "no", "such", "dir", "f"), 2, 3); err == nil {
		t.Error("uncreatable path must fail")
	}
}

func TestSimStoreChargesClock(t *testing.T) {
	var clock iosim.Clock
	dev := iosim.Device{Name: "test", Latency: time.Millisecond, Bandwidth: 8e6} // 1 MB = 125ms
	s := NewSimStore(NewMemStore(4, 1000), dev, &clock)
	defer s.Close()
	buf := make([]float64, 1000) // 8000 bytes -> 1ms + 1ms transfer
	if err := s.WriteVector(0, buf); err != nil {
		t.Fatal(err)
	}
	if err := s.ReadVector(0, buf); err != nil {
		t.Fatal(err)
	}
	if clock.Ops() != 2 || clock.Bytes() != 16000 {
		t.Errorf("clock ledger wrong: %s", clock.String())
	}
	want := 2 * (time.Millisecond + time.Millisecond)
	if d := clock.Elapsed() - want; d < -time.Microsecond || d > time.Microsecond {
		t.Errorf("elapsed %v, want ~%v", clock.Elapsed(), want)
	}
	clock.Reset()
	if clock.Elapsed() != 0 || clock.Ops() != 0 {
		t.Error("reset failed")
	}
}

func TestDevicePresetsAndTransferTime(t *testing.T) {
	hdd, ssd := iosim.HDD(), iosim.SSD()
	if hdd.TransferTime(1<<20) <= ssd.TransferTime(1<<20) {
		t.Error("HDD must be slower than SSD")
	}
	if hdd.TransferTime(0) != hdd.Latency {
		t.Error("zero-byte transfer costs exactly the latency")
	}
	if hdd.TransferTime(-5) != hdd.Latency {
		t.Error("negative sizes clamp to zero")
	}
	big := hdd.TransferTime(1 << 30)
	small := hdd.TransferTime(1 << 10)
	if big <= small {
		t.Error("transfer time must grow with size")
	}
}
