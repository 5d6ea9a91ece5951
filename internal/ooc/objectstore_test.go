package ooc

import (
	"context"
	"strings"
	"testing"
	"time"

	"oocphylo/internal/iosim"
	"oocphylo/internal/ooc/remote"
)

func TestParseRemoteURL(t *testing.T) {
	ep, err := ParseRemoteURL("remote://127.0.0.1:9000/run1.vec")
	if err != nil {
		t.Fatal(err)
	}
	if ep != "http://127.0.0.1:9000/o/run1.vec" {
		t.Errorf("endpoint = %q", ep)
	}
	for _, bad := range []string{"file:///x", "remote://hostonly", "remote:///obj", "remote://h:1/a/b"} {
		if _, err := ParseRemoteURL(bad); err == nil {
			t.Errorf("ParseRemoteURL(%q) should fail", bad)
		}
	}
}

func TestObjectStoreRoundTrip(t *testing.T) {
	srv, err := remote.NewServer(remote.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	s, err := NewObjectStore(context.Background(), srv.ObjectURL("v"), 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	src := []float64{1.5, -2.25, 1e30, 3.25e-12}
	if err := s.WriteVector(2, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 4)
	if err := s.ReadVector(2, dst); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if dst[i] != src[i] {
			t.Errorf("pos %d: %v != %v (must round-trip bit-exact)", i, dst[i], src[i])
		}
	}
	// Never-written vectors read as zeros, like a fresh backing file.
	if err := s.ReadVector(0, dst); err != nil {
		t.Fatal(err)
	}
	for i, v := range dst {
		if v != 0 {
			t.Errorf("fresh vector pos %d = %v, want 0", i, v)
		}
	}
	// Ranged write + read of three adjacent vectors in one request.
	buf := make([]float64, 12)
	for i := range buf {
		buf[i] = float64(i) + 0.5
	}
	if err := s.WriteRange(context.Background(), 3, 3, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, 12)
	if err := s.ReadRange(context.Background(), 3, 3, got); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		if got[i] != buf[i] {
			t.Fatalf("ranged read pos %d: %v != %v", i, got[i], buf[i])
		}
	}
	// Bounds checks.
	if err := s.ReadVector(6, dst); err == nil {
		t.Error("out-of-range read must fail")
	}
	if err := s.ReadRange(nil, 4, 3, make([]float64, 12)); err == nil {
		t.Error("out-of-range ranged read must fail")
	}
	if err := s.WriteVector(0, make([]float64, 5)); err == nil {
		t.Error("oversized write must fail")
	}
	if err := s.WriteVector(0, nil); err == nil {
		t.Error("empty write must fail")
	}
	if err := s.WriteRange(nil, 0, 2, make([]float64, 7)); err == nil {
		t.Error("a short buffer of two vectors must fail")
	}
	// A single short record moves its own bytes, no more, and reads back.
	before := srv.Clock().Bytes()
	if err := s.WriteVector(5, src[:3]); err != nil {
		t.Fatal(err)
	}
	short := make([]float64, 3)
	if err := s.ReadVector(5, short); err != nil {
		t.Fatal(err)
	}
	if moved := srv.Clock().Bytes() - before; moved != 2*3*8 {
		t.Errorf("a 3-float record moved %d bytes, want %d", moved, 2*3*8)
	}
	for i := range short {
		if short[i] != src[i] {
			t.Errorf("short record pos %d: %v != %v", i, short[i], src[i])
		}
	}
}

func TestObjectStoreTransientErrors(t *testing.T) {
	srv, err := remote.NewServer(remote.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewObjectStore(context.Background(), srv.ObjectURL("t"), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close() // connection refused from here on
	err = s.ReadVector(0, make([]float64, 2))
	if err == nil {
		t.Fatal("read against a dead server must fail")
	}
	if !IsTransient(err) {
		t.Errorf("network failure should be transient (retryable): %v", err)
	}
	if !strings.Contains(err.Error(), "remote") {
		t.Errorf("error should identify the remote path: %v", err)
	}
}

// TestObjectStoreContextCancelMidGet covers the ISSUE's cancellation
// case: a ranged GET against a stalled backend must abort promptly when
// the caller's context is cancelled, not wait out the stall.
func TestObjectStoreContextCancelMidGet(t *testing.T) {
	chaos := iosim.NewChaos(iosim.ChaosConfig{StallProb: 1, Stall: 3 * time.Second})
	chaos.Disable() // setup traffic passes cleanly
	srv, err := remote.NewServer(remote.ServerConfig{Chaos: chaos})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	s, err := NewObjectStore(context.Background(), srv.ObjectURL("cancel"), 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	chaos.Enable()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	buf := make([]float64, 4*4)
	start := time.Now()
	err = s.ReadRange(ctx, 0, 4, buf)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("cancelled ranged GET returned success")
	}
	if elapsed >= time.Second {
		t.Errorf("cancellation took %v — the stall was waited out", elapsed)
	}
}

// TestObjectStoreDeadline pins how a per-attempt deadline (the context
// timeout TieredConfig.RemoteDeadline puts on each request) lands: a
// stalled request is bounded by it, and the expiry surfaces as a
// transient (retryable) error.
func TestObjectStoreDeadline(t *testing.T) {
	chaos := iosim.NewChaos(iosim.ChaosConfig{StallProb: 1, Stall: 3 * time.Second})
	chaos.Disable()
	srv, err := remote.NewServer(remote.ServerConfig{Chaos: chaos})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	s, err := NewObjectStore(context.Background(), srv.ObjectURL("deadline"), 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	chaos.Enable()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = s.ReadRange(ctx, 0, 1, make([]float64, 4))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("deadlined read against a stalled server returned success")
	}
	if !IsTransient(err) {
		t.Errorf("deadline expiry should be transient: %v", err)
	}
	if elapsed >= time.Second {
		t.Errorf("deadline not enforced: read took %v", elapsed)
	}
}
