package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

// startDaemon launches runServe on a free port with output captured to
// a file, polls the banner for the bound address, and returns the
// address plus the channel the daemon's exit error arrives on.
func startDaemon(t *testing.T, dataDir string, extra ...string) (addr string, done chan error, outPath string) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "serve-out")
	if err != nil {
		t.Fatal(err)
	}
	outPath = f.Name()
	args := append([]string{"-addr", "127.0.0.1:0", "-data", dataDir}, extra...)
	done = make(chan error, 1)
	go func() {
		defer f.Close()
		done <- runServe(args, f)
	}()

	bannerRe := regexp.MustCompile(`daemon on http://([^/]+)/`)
	deadline := time.Now().Add(10 * time.Second)
	for {
		data, _ := os.ReadFile(outPath)
		if m := bannerRe.FindStringSubmatch(string(data)); m != nil {
			return m[1], done, outPath
		}
		select {
		case err := <-done:
			t.Fatalf("daemon exited before binding: %v\n%s", err, data)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never printed its address; output so far:\n%s", data)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stopDaemon delivers SIGTERM (to our own process; runServe's handler
// intercepts it) and asserts the graceful-exit contract: nil error —
// the CLI maps that to exit code 0 — after parking every session.
func stopDaemon(t *testing.T, done chan error, outPath string) {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit after SIGTERM: %v (want nil for exit code 0)", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit within 30s of SIGTERM")
	}
	if data, _ := os.ReadFile(outPath); !strings.Contains(string(data), "All sessions parked") {
		t.Errorf("daemon shutdown did not park sessions; output:\n%s", data)
	}
}

// client runs one `oocraxml client` operation with captured output.
func client(t *testing.T, args ...string) (string, error) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "client-out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	runErr := runClient(args, f)
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data), runErr
}

var lnlBitsRe = regexp.MustCompile(`Log likelihood bits: ([0-9a-f]{16})`)

// TestServeDifferentialAgainstOneShot is the daemon smoke: start the
// daemon, create a session, fire concurrent evaluates that the session
// loop batches, and assert every reply is bit-for-bit identical
// to a one-shot CLI run over the session's own tree. Then SIGTERM the
// daemon (graceful exit, resumable checkpoint on disk), restart it over
// the same data directory and assert the adopted session still answers
// with the same bits.
func TestServeDifferentialAgainstOneShot(t *testing.T) {
	phy, _ := writeTestData(t)
	dataDir := t.TempDir()
	addr, done, outPath := startDaemon(t, dataDir)

	if _, err := client(t, "create", "-addr", addr, "-name", "smoke", "-s", phy, "-a", "1"); err != nil {
		t.Fatalf("client create: %v", err)
	}

	// The session's normalised tree is the common input for the
	// comparison: the one-shot CLI parses exactly what the daemon walks.
	nwkOut, err := client(t, "tree", "-addr", addr, "-name", "smoke")
	if err != nil {
		t.Fatalf("client tree: %v", err)
	}
	svcTree := filepath.Join(t.TempDir(), "svc.nwk")
	if err := os.WriteFile(svcTree, []byte(strings.TrimSpace(nwkOut)+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	// One-shot reference: mode z leaves the tree untouched and reports
	// the likelihood at edge 0 of the parsed tree.
	oneShot, err := capture(t, "-s", phy, "-t", svcTree, "-f", "z", "-k", "1", "-a", "1", "-lnl-bits")
	if err != nil {
		t.Fatalf("one-shot CLI: %v\n%s", err, oneShot)
	}
	m := lnlBitsRe.FindStringSubmatch(oneShot)
	if m == nil {
		t.Fatalf("one-shot CLI printed no lnl bits:\n%s", oneShot)
	}
	refBits := m[1]

	// Concurrent evaluates, batched by the session loop.
	evalOut, err := client(t, "eval", "-addr", addr, "-name", "smoke", "-edge", "0", "-n", "6", "-concurrent")
	if err != nil {
		t.Fatalf("client eval: %v", err)
	}
	bits := lnlBitsRe.FindAllStringSubmatch(evalOut, -1)
	if len(bits) != 6 {
		t.Fatalf("expected 6 replies, got %d:\n%s", len(bits), evalOut)
	}
	for i, b := range bits {
		if b[1] != refBits {
			t.Errorf("concurrent evaluate %d: bits %s != one-shot CLI %s\n%s", i, b[1], refBits, evalOut)
		}
	}
	if !regexp.MustCompile(`Batch: seq=\d+ size=\d+ wait_us=\d+ exec_us=\d+`).MatchString(evalOut) {
		t.Errorf("eval output carries no batching ledger:\n%s", evalOut)
	}

	// The /debug endpoint serves the per-session admission/batching
	// counters next to the service routes.
	varsOut, err := client(t, "info", "-addr", addr, "-name", "smoke")
	if err != nil || !strings.Contains(varsOut, "6 evals") {
		t.Errorf("info after evals (err %v):\n%s", err, varsOut)
	}

	// SIGTERM → exit 0 with a resumable checkpoint on disk.
	stopDaemon(t, done, outPath)
	if _, err := os.Stat(filepath.Join(dataDir, "smoke.ckpt")); err != nil {
		t.Fatalf("graceful shutdown left no resumable checkpoint: %v", err)
	}

	// Restart over the same data directory: the parked session is
	// adopted and revives bit-identically.
	addr2, done2, outPath2 := startDaemon(t, dataDir)
	if data, _ := os.ReadFile(outPath2); !strings.Contains(string(data), "Adopted 1 parked session(s): smoke") {
		t.Errorf("restarted daemon did not adopt the parked session:\n%s", data)
	}
	evalOut2, err := client(t, "eval", "-addr", addr2, "-name", "smoke")
	if err != nil {
		t.Fatalf("eval after restart: %v", err)
	}
	m2 := lnlBitsRe.FindStringSubmatch(evalOut2)
	if m2 == nil || m2[1] != refBits {
		t.Errorf("revived session bits %v != one-shot %s:\n%s", m2, refBits, evalOut2)
	}
	stopDaemon(t, done2, outPath2)
}

// TestServeOutOfCoreSession smokes an out-of-core tenant end to end
// through the CLI surface: quota-limited create, evaluate, park,
// revive, delete.
func TestServeOutOfCoreSession(t *testing.T) {
	phy, _ := writeTestData(t)
	dataDir := t.TempDir()
	addr, done, outPath := startDaemon(t, dataDir)

	// 6 taxa → 4 inner vectors of 12 patterns × 4 cats × 4 states × 8 B
	// = 1536 B each (6144 B in-core). A 5000 B quota is below that but
	// above the MinSlots floor of 3 × 1536 B, so the manager comes in
	// with 3 slots.
	createOut, err := client(t, "create", "-addr", addr, "-name", "ooc", "-s", phy, "-a", "1", "-L", "5000")
	if err != nil {
		t.Fatalf("client create -L: %v\n%s", err, createOut)
	}
	if !strings.Contains(createOut, "out-of-core") {
		t.Fatalf("session did not go out of core:\n%s", createOut)
	}

	evalOut, err := client(t, "eval", "-addr", addr, "-name", "ooc")
	if err != nil {
		t.Fatal(err)
	}
	before := lnlBitsRe.FindStringSubmatch(evalOut)
	if before == nil {
		t.Fatalf("no bits in eval output:\n%s", evalOut)
	}

	if _, err := client(t, "park", "-addr", addr, "-name", "ooc"); err != nil {
		t.Fatalf("park: %v", err)
	}
	for _, f := range []string{"ooc.ckpt", "ooc.vec", "ooc.aln"} {
		if _, err := os.Stat(filepath.Join(dataDir, f)); err != nil {
			t.Errorf("parked session missing %s: %v", f, err)
		}
	}
	if ents, _ := os.ReadDir(dataDir); len(ents) != 3 {
		t.Errorf("parked session's data dir holds %v; want only the three files above", ents)
	}

	evalOut2, err := client(t, "eval", "-addr", addr, "-name", "ooc")
	if err != nil {
		t.Fatalf("eval after park: %v", err)
	}
	after := lnlBitsRe.FindStringSubmatch(evalOut2)
	if after == nil || after[1] != before[1] {
		t.Errorf("park/revive changed bits: %v -> %v", before, after)
	}

	if _, err := client(t, "delete", "-addr", addr, "-name", "ooc"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dataDir, "ooc.vec")); !os.IsNotExist(err) {
		t.Error("delete left the backing file behind")
	}
	stopDaemon(t, done, outPath)
}

// TestServeAdmissionOverBudget pins the governor on the wire: with a
// server budget too small for a second in-core tenant, the create is
// refused with a retryable error mentioning the budget.
func TestServeAdmissionOverBudget(t *testing.T) {
	phy, _ := writeTestData(t)
	dataDir := t.TempDir()
	// The 6-taxon test alignment needs 4 vectors × 1536 B = 6144 B
	// in-core; an 8000 B budget holds one copy but not two.
	addr, done, outPath := startDaemon(t, dataDir, "-server-budget", "8000")

	if _, err := client(t, "create", "-addr", addr, "-name", "one", "-s", phy, "-a", "1"); err != nil {
		t.Fatalf("first create: %v", err)
	}
	_, err := client(t, "create", "-addr", addr, "-name", "two", "-s", phy, "-a", "1")
	if err == nil {
		t.Fatal("second in-core tenant admitted past -server-budget")
	}
	if !strings.Contains(err.Error(), "budget") || !strings.Contains(err.Error(), "503") {
		t.Errorf("rejection unhelpful: %v", err)
	}
	// Park the incumbent; the same create now fits.
	if _, err := client(t, "park", "-addr", addr, "-name", "one"); err != nil {
		t.Fatal(err)
	}
	if _, err := client(t, "create", "-addr", addr, "-name", "two", "-s", phy, "-a", "1"); err != nil {
		t.Fatalf("create after park: %v", err)
	}
	stopDaemon(t, done, outPath)
}

// sanity for the helper regex: FormatLnLBits-style output is what the
// client prints.
func TestLnLBitsRegexp(t *testing.T) {
	if !lnlBitsRe.MatchString(fmt.Sprintf("Log likelihood bits: %016x\n", uint64(0xc09637cf4414c58f))) {
		t.Fatal("lnlBitsRe does not match the client's output format")
	}
}
