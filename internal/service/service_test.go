package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"oocphylo/internal/analysis"
	"oocphylo/internal/bio"
	"oocphylo/internal/checkpoint"
	"oocphylo/internal/model"
	"oocphylo/internal/ooc"
	"oocphylo/internal/plf"
	"oocphylo/internal/sim"
)

// writeTestAlignment simulates a dataset and writes it as phylip,
// returning the path plus the alignment's memory shape under the test
// model config (vector bytes and in-core need) so tests can pick
// quotas.
func writeTestAlignment(t *testing.T, dir string, taxa, sites int, seed int64) (path string, vecBytes, need int64) {
	t.Helper()
	d, err := sim.NewDataset(sim.Config{Taxa: taxa, Sites: sites, GammaAlpha: 1, Seed: seed})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	var buf bytes.Buffer
	if err := bio.WritePhylip(&buf, d.Alignment); err != nil {
		t.Fatalf("WritePhylip: %v", err)
	}
	path = filepath.Join(dir, fmt.Sprintf("aln-%d.phy", seed))
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	pats, err := bio.Compress(d.Alignment)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SessionConfig{Model: "GTR", Alpha: 1, Cats: 4}
	cfg.Fill()
	in, err := analysis.Build(context.Background(), cfg, pats)
	if err != nil {
		t.Fatal(err)
	}
	vecBytes = int64(plf.VectorLength(in.Model, pats.NumPatterns())) * 8
	need = int64(d.Tree.NumInner()) * vecBytes
	return path, vecBytes, need
}

func newTestServer(t *testing.T, cfg ServerConfig) *Server {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func baseSession(name, alnPath string) SessionConfig {
	return SessionConfig{
		Name:  name,
		Path:  alnPath,
		Model: "GTR",
		Alpha: 1,
		Cats:  4,
	}
}

// TestServiceDifferentialConcurrentVsOneShot: N concurrent evaluates,
// each taking the session in turn and reusing the vectors the ones
// before it left valid, must be bit-for-bit identical to a fresh
// one-shot pass over the same session config. Run under -race this
// also exercises the session's serialisation of its engine.
func TestServiceDifferentialConcurrentVsOneShot(t *testing.T) {
	dir := t.TempDir()
	alnPath, _, _ := writeTestAlignment(t, dir, 10, 300, 7)
	srv := newTestServer(t, ServerConfig{DataDir: dir})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	c := NewClient(hs.URL)

	// Reference: a session with the same config, answered by a forced
	// fresh full pass (what a one-shot CLI run computes).
	if _, err := c.CreateSession(baseSession("ref", alnPath)); err != nil {
		t.Fatalf("create ref: %v", err)
	}
	ref, err := c.Evaluate("ref", EvalSpec{Edge: 0, Full: true})
	if err != nil {
		t.Fatalf("full evaluate ref: %v", err)
	}
	if ref.LnL >= 0 {
		t.Fatalf("reference lnL %v is not a log likelihood", ref.LnL)
	}

	// Concurrent: N evaluates at once against an identically
	// configured session.
	if _, err := c.CreateSession(baseSession("con", alnPath)); err != nil {
		t.Fatalf("create con: %v", err)
	}
	const n = 8
	replies := make([]EvalReply, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			replies[i], errs[i] = c.Evaluate("con", EvalSpec{Edge: 0})
		}(i)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("evaluate %d: %v", i, errs[i])
		}
		if replies[i].LnLBits != ref.LnLBits {
			t.Errorf("evaluate %d: lnl_bits %s != one-shot %s (lnl %v vs %v)",
				i, replies[i].LnLBits, ref.LnLBits, replies[i].LnL, ref.LnL)
		}
		if replies[i].BatchSize != 1 || replies[i].ExecMicros < 0 || replies[i].WaitMicros < 0 {
			t.Errorf("evaluate %d: malformed ledger %+v", i, replies[i])
		}
	}

	info, err := c.SessionInfo("con")
	if err != nil {
		t.Fatalf("info: %v", err)
	}
	if info.Evals != n {
		t.Errorf("session evals = %d, want %d", info.Evals, n)
	}
}

// TestServiceHypotheticalLengthAndFull pins the two evaluate variants:
// a hypothetical-length evaluate must differ from the current-length
// one (the sum table was consulted at a different t), and Full passes
// reproduce the same bits as incremental ones.
func TestServiceHypotheticalLengthAndFull(t *testing.T) {
	dir := t.TempDir()
	alnPath, _, _ := writeTestAlignment(t, dir, 8, 200, 11)
	srv := newTestServer(t, ServerConfig{DataDir: dir})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	c := NewClient(hs.URL)

	if _, err := c.CreateSession(baseSession("s", alnPath)); err != nil {
		t.Fatal(err)
	}
	cur, err := c.Evaluate("s", EvalSpec{Edge: 2})
	if err != nil {
		t.Fatal(err)
	}
	full, err := c.Evaluate("s", EvalSpec{Edge: 2, Full: true})
	if err != nil {
		t.Fatal(err)
	}
	if full.LnLBits != cur.LnLBits {
		t.Errorf("full pass bits %s != incremental %s", full.LnLBits, cur.LnLBits)
	}
	length := 0.42
	hyp, err := c.Evaluate("s", EvalSpec{Edge: 2, Length: &length})
	if err != nil {
		t.Fatal(err)
	}
	if hyp.LnLBits == cur.LnLBits {
		t.Errorf("hypothetical-length evaluate returned the current-length bits %s", cur.LnLBits)
	}
	// The hypothetical evaluate must not have mutated the tree: the
	// current-length answer is unchanged.
	again, err := c.Evaluate("s", EvalSpec{Edge: 2})
	if err != nil {
		t.Fatal(err)
	}
	if again.LnLBits != cur.LnLBits {
		t.Errorf("tree perturbed by hypothetical evaluate: %s != %s", again.LnLBits, cur.LnLBits)
	}
}

// TestServiceEvaluateLengthRange: a hypothetical length outside
// [tree.MinBranchLength, tree.MaxBranchLength] is a 400 that names the
// range, not a likelihood at a length no optimiser would reach (a
// negative one), nor a 200 whose +Inf body does not encode.
func TestServiceEvaluateLengthRange(t *testing.T) {
	dir := t.TempDir()
	alnPath, _, _ := writeTestAlignment(t, dir, 12, 200, 13)
	srv := newTestServer(t, ServerConfig{DataDir: dir})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	if _, err := NewClient(hs.URL).CreateSession(baseSession("len", alnPath)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		length string
		want   int
	}{
		{"-5", http.StatusBadRequest},
		{"1.797e308", http.StatusBadRequest},
		{"0.42", http.StatusOK},
	} {
		resp, err := http.Post(hs.URL+"/v1/sessions/len/evaluate", "application/json",
			strings.NewReader(`{"edge":1,"length":`+tc.length+`}`))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("length %s: HTTP %d %s, want %d", tc.length, resp.StatusCode, body, tc.want)
		}
		if tc.want == http.StatusBadRequest && !strings.Contains(string(body), "[1e-06, 100]") {
			t.Errorf("length %s: error %s does not name the range [1e-06, 100]", tc.length, body)
		}
	}
}

// TestServiceParkReviveBitIdentical pins the park/revive cycle for an
// out-of-core session: park writes a checkpoint, the revive opens a
// fresh store over the parked backing file and recomputes, and the next
// evaluate returns the exact bits from before the park.
func TestServiceParkReviveBitIdentical(t *testing.T) {
	dir := t.TempDir()
	alnPath, vecBytes, need := writeTestAlignment(t, dir, 12, 300, 3)
	srv := newTestServer(t, ServerConfig{DataDir: dir})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	c := NewClient(hs.URL)

	cfg := baseSession("ooc", alnPath)
	cfg.MemLimit = need / 2
	if cfg.MemLimit < int64(ooc.MinSlots)*vecBytes {
		t.Fatalf("test dataset too small to go out of core: need %d, vecBytes %d", need, vecBytes)
	}
	info, err := c.CreateSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !info.OutOfCore {
		t.Fatalf("session not out of core: %+v", info)
	}

	before, err := c.Evaluate("ooc", EvalSpec{Edge: 1})
	if err != nil {
		t.Fatal(err)
	}

	parked, err := c.Park("ooc")
	if err != nil {
		t.Fatalf("park: %v", err)
	}
	if parked.State != "parked" {
		t.Fatalf("state after park = %q", parked.State)
	}
	if _, err := os.Stat(filepath.Join(dir, "ooc.ckpt")); err != nil {
		t.Fatalf("park left no checkpoint: %v", err)
	}
	// Nothing in the parked vector file is read again: invert every bit.
	vec := filepath.Join(dir, "ooc.vec")
	data, err := os.ReadFile(vec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] ^= 0xFF
	}
	if err := os.WriteFile(vec, data, 0o644); err != nil {
		t.Fatal(err)
	}

	after, err := c.Evaluate("ooc", EvalSpec{Edge: 1})
	if err != nil {
		t.Fatalf("evaluate after park: %v", err)
	}
	if after.LnLBits != before.LnLBits {
		t.Errorf("revive changed the likelihood: %s -> %s", before.LnLBits, after.LnLBits)
	}
	info, err = c.SessionInfo("ooc")
	if err != nil {
		t.Fatal(err)
	}
	if info.State != "active" || info.Parks != 1 || info.Revives != 1 {
		t.Errorf("after revive: state=%s parks=%d revives=%d, want active/1/1", info.State, info.Parks, info.Revives)
	}
}

// TestServiceRestartAdoptsParkedSessions pins daemon restart: a new
// server over the same data directory lists the parked session and
// revives it bit-identically on the next request — RAM state is fully
// reconstructable from <name>.aln + <name>.ckpt.
func TestServiceRestartAdoptsParkedSessions(t *testing.T) {
	dir := t.TempDir()
	alnPath, _, _ := writeTestAlignment(t, dir, 9, 250, 5)

	srv1, err := NewServer(ServerConfig{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ses, err := srv1.CreateSession(baseSession("keep", alnPath))
	if err != nil {
		t.Fatal(err)
	}
	before, err := ses.Evaluate(EvalSpec{Edge: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv1.Close(); err != nil { // Close parks everything
		t.Fatalf("close: %v", err)
	}

	srv2 := newTestServer(t, ServerConfig{DataDir: dir})
	infos := srv2.Sessions()
	if len(infos) != 1 || infos[0].Name != "keep" || infos[0].State != "parked" {
		t.Fatalf("restarted daemon sessions = %+v, want one parked %q", infos, "keep")
	}
	ses2, ok := srv2.Session("keep")
	if !ok {
		t.Fatal("session not adopted")
	}
	after, err := ses2.Evaluate(EvalSpec{Edge: 0})
	if err != nil {
		t.Fatalf("evaluate after restart: %v", err)
	}
	if after.LnLBits != before.LnLBits {
		t.Errorf("restart changed the likelihood: %s -> %s", before.LnLBits, after.LnLBits)
	}
}

// TestServiceCreateRejectsUnknownFields: a session document with a
// field the daemon does not know — a misspelt key, or the retired
// "precision" — is refused with a 400 that names it, instead of
// running with that setting at its default. A session parked by an
// older binary whose stored config still carries "precision" revives.
func TestServiceCreateRejectsUnknownFields(t *testing.T) {
	dir := t.TempDir()
	alnPath, _, need := writeTestAlignment(t, dir, 9, 250, 5)
	srv1, err := NewServer(ServerConfig{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv1.Handler())
	defer hs.Close()
	create := func(doc string) (int, string) {
		resp, err := http.Post(hs.URL+"/v1/sessions", "application/json", strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	doc := func(name, extra string) string {
		return fmt.Sprintf(`{"name":%q,"path":%q,"model":"GTR","alpha":1,"cats":4%s}`, name, alnPath, extra)
	}
	for _, field := range []string{"mem_limt", "precision"} {
		code, body := create(doc("bad", fmt.Sprintf(`,%q:%d`, field, need/2)))
		if code != http.StatusBadRequest || !strings.Contains(body, field) {
			t.Errorf("unknown field %q: %d %s, want 400 naming it", field, code, body)
		}
	}
	if _, ok := srv1.Session("bad"); ok {
		t.Fatal("a refused document created a session")
	}
	if code, body := create(doc("keep", fmt.Sprintf(`,"mem_limit":%d`, need/2))); code != http.StatusCreated {
		t.Fatalf("well-formed document: %d %s", code, body)
	}
	ses, _ := srv1.Session("keep")
	before, err := ses.Evaluate(EvalSpec{Edge: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv1.Close(); err != nil { // Close parks everything
		t.Fatalf("close: %v", err)
	}

	// Rewrite the parked config as an older binary stored it.
	path := filepath.Join(dir, "keep.ckpt")
	ck, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	var stored map[string]any
	if err := json.Unmarshal([]byte(ck.Meta["service.config"]), &stored); err != nil {
		t.Fatal(err)
	}
	stored["precision"] = "f64"
	old, err := json.Marshal(stored)
	if err != nil {
		t.Fatal(err)
	}
	ck.Meta["service.config"] = string(old)
	if err := checkpoint.Save(path, ck); err != nil {
		t.Fatal(err)
	}

	srv2 := newTestServer(t, ServerConfig{DataDir: dir})
	ses2, ok := srv2.Session("keep")
	if !ok {
		t.Fatal("session parked with a retired field not adopted")
	}
	after, err := ses2.Evaluate(EvalSpec{Edge: 0})
	if err != nil {
		t.Fatalf("evaluate after restart: %v", err)
	}
	if after.LnLBits != before.LnLBits {
		t.Errorf("revive changed the likelihood: %s -> %s", before.LnLBits, after.LnLBits)
	}
}

// TestServiceAdmissionControl pins the governor's floor arithmetic: a
// session whose floor cannot fit beside the active tenants is rejected
// with an admission error (503 on the wire), and fits again once the
// incumbent is parked.
func TestServiceAdmissionControl(t *testing.T) {
	dir := t.TempDir()
	alnPath, _, need := writeTestAlignment(t, dir, 10, 300, 13)

	// Budget holds exactly one in-core copy.
	srv := newTestServer(t, ServerConfig{DataDir: dir, MemBudget: need + need/4})
	if _, err := srv.CreateSession(baseSession("first", alnPath)); err != nil {
		t.Fatalf("first create: %v", err)
	}
	_, err := srv.CreateSession(baseSession("second", alnPath))
	if err == nil {
		t.Fatal("second in-core session admitted past the budget")
	}
	if !IsAdmissionError(err) {
		t.Fatalf("rejection is not an admission error: %v", err)
	}
	if srv.mxRejected.Value() == 0 {
		t.Error("svc.rejected counter not incremented")
	}
	// The refused session leaves no instruments behind.
	snap := srv.reg.Snapshot()
	for name := range snap.Counters {
		if strings.HasPrefix(name, metricsPrefix("second")) {
			t.Errorf("refused create left %s in the registry", name)
		}
	}
	for name := range snap.Gauges {
		if strings.HasPrefix(name, metricsPrefix("second")) {
			t.Errorf("refused create left %s in the registry", name)
		}
	}

	// Park the incumbent: its floor drops to zero, the rejected config
	// now fits.
	if err := srv.ParkSession("first"); err != nil {
		t.Fatalf("park first: %v", err)
	}
	if _, err := srv.CreateSession(baseSession("second", alnPath)); err != nil {
		t.Fatalf("create after park still rejected: %v", err)
	}
}

// TestServiceMultiTenantSqueeze pins the proportional grant: two active
// out-of-core tenants under a budget smaller than their combined quotas
// end up with grants that fit, enforced as live pool shrinks on the
// incumbent.
func TestServiceMultiTenantSqueeze(t *testing.T) {
	dir := t.TempDir()
	// 24 taxa: half the footprint must buy slots above the MinSlots floor
	// after the pipeline's spare buffers are charged, or there is nothing
	// to squeeze.
	alnPath, vecBytes, need := writeTestAlignment(t, dir, 24, 300, 17)

	quota := need / 2 // each tenant asks for half its in-core footprint
	if quota < int64(ooc.MinSlots+2)*vecBytes {
		t.Fatalf("dataset too small: quota %d, vecBytes %d", quota, vecBytes)
	}
	budget := quota + quota/2 // both quotas do NOT fit; both floors do
	srv := newTestServer(t, ServerConfig{DataDir: dir, MemBudget: budget})

	cfgA := baseSession("a", alnPath)
	cfgA.MemLimit = quota
	sa, err := srv.CreateSession(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sa.Evaluate(EvalSpec{Edge: 0}); err != nil {
		t.Fatal(err)
	}
	_, _, _, _, _, _ = sa.memShape()
	slotsBefore := sa.infoSnapshot().Slots

	cfgB := baseSession("b", alnPath)
	cfgB.MemLimit = quota
	sb, err := srv.CreateSession(cfgB)
	if err != nil {
		t.Fatalf("second OOC tenant rejected despite fitting floors: %v", err)
	}
	if _, err := sb.Evaluate(EvalSpec{Edge: 0}); err != nil {
		t.Fatal(err)
	}

	// The rebalance runs asynchronously through each session's loop;
	// poll for the squeeze to land.
	deadline := time.Now().Add(5 * time.Second)
	for {
		ia, ib := sa.infoSnapshot(), sb.infoSnapshot()
		if ia.GrantBytes+ib.GrantBytes <= budget && ia.Slots < slotsBefore {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("squeeze never landed: a={grant %d, slots %d (was %d)} b={grant %d, slots %d}, budget %d",
				ia.GrantBytes, ia.Slots, slotsBefore, ib.GrantBytes, ib.Slots, budget)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Both tenants still answer, bit-identically to each other (same
	// config, same data).
	ra, err := sa.Evaluate(EvalSpec{Edge: 0})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := sb.Evaluate(EvalSpec{Edge: 0})
	if err != nil {
		t.Fatal(err)
	}
	if ra.LnLBits != rb.LnLBits {
		t.Errorf("squeezed tenants disagree: %s vs %s", ra.LnLBits, rb.LnLBits)
	}
}

// TestServiceGrantIsTheOnlyMemoryController: the daemon's budget
// counts vector bytes, not the process heap, so nothing but the grant
// may size a session's pool. A session whose grant fills the budget
// keeps, through many full passes, exactly the slots that grant buys.
func TestServiceGrantIsTheOnlyMemoryController(t *testing.T) {
	dir := t.TempDir()
	alnPath, vecBytes, need := writeTestAlignment(t, dir, 24, 600, 29)
	srv := newTestServer(t, ServerConfig{DataDir: dir, MemBudget: need / 2})
	cfg := baseSession("solo", alnPath)
	cfg.MemLimit = need / 2
	ses, err := srv.CreateSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := ses.infoSnapshot()
	ses.mu.Lock()
	mgr, n := ses.manager(), ses.size.NumVectors
	ses.mu.Unlock()
	if want := ooc.SlotsForBytes(before.GrantBytes, mgr.MemOverheadBytes(), vecBytes, n); before.Slots != want || want <= ooc.MinSlots {
		t.Fatalf("grant %d B opened %d slots, buys %d (want above the floor)", before.GrantBytes, before.Slots, want)
	}
	for i := 0; i < 40; i++ {
		if _, err := ses.Evaluate(EvalSpec{Edge: 0, Full: true}); err != nil {
			t.Fatal(err)
		}
	}
	if after := ses.infoSnapshot(); after.Slots != before.Slots || after.GrantBytes != before.GrantBytes {
		t.Errorf("40 full passes moved the pool: %d slots under a %d B grant, was %d under %d B",
			after.Slots, after.GrantBytes, before.Slots, before.GrantBytes)
	}
}

// TestServiceValidation pins the cheap guards: bad names, duplicate
// names, unknown sessions and bad edges all fail cleanly.
func TestServiceValidation(t *testing.T) {
	dir := t.TempDir()
	alnPath, _, _ := writeTestAlignment(t, dir, 8, 150, 23)
	srv := newTestServer(t, ServerConfig{DataDir: dir})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	c := NewClient(hs.URL)

	if _, err := c.CreateSession(SessionConfig{Name: "../evil", Path: alnPath}); err == nil {
		t.Error("path-traversal name accepted")
	}
	if _, err := c.CreateSession(baseSession("dup", alnPath)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateSession(baseSession("dup", alnPath)); err == nil {
		t.Error("duplicate name accepted")
	}
	if _, err := c.Evaluate("ghost", EvalSpec{}); err == nil || !strings.Contains(err.Error(), "404") && !strings.Contains(err.Error(), "no session") {
		t.Errorf("evaluate on missing session: %v", err)
	}
	if _, err := c.Evaluate("dup", EvalSpec{Edge: 10_000}); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if err := c.DeleteSession("dup"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SessionInfo("dup"); err == nil {
		t.Error("deleted session still answers")
	}
	if _, err := os.Stat(filepath.Join(dir, "dup.aln")); !os.IsNotExist(err) {
		t.Error("delete left the session alignment behind")
	}
}

// TestServiceCreateBounds: a create whose Γ categories could never be
// restored from the session's own park checkpoint, or whose workers
// would each start a goroutine past any machine's cores, is a 400
// before anything is built. A session at the category bound parks and
// revives bit-identically.
func TestServiceCreateBounds(t *testing.T) {
	dir := t.TempDir()
	alnPath, _, _ := writeTestAlignment(t, dir, 8, 150, 29)
	srv := newTestServer(t, ServerConfig{DataDir: dir})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	for _, extra := range []string{`"cats":300`, `"cats":4,"workers":100000000`} {
		doc := fmt.Sprintf(`{"name":"wide","path":%q,"alpha":1,%s}`, alnPath, extra)
		resp, err := http.Post(hs.URL+"/v1/sessions", "application/json", strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("create with %s: HTTP %d %s, want 400", extra, resp.StatusCode, body)
		}
	}
	if infos := srv.Sessions(); len(infos) != 0 {
		t.Fatalf("a refused create left sessions behind: %+v", infos)
	}

	c := NewClient(hs.URL)
	cfg := baseSession("wide", alnPath)
	cfg.Cats = model.MaxGammaCats
	if _, err := c.CreateSession(cfg); err != nil {
		t.Fatal(err)
	}
	before, err := c.Evaluate("wide", EvalSpec{Edge: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Park("wide"); err != nil {
		t.Fatal(err)
	}
	after, err := c.Evaluate("wide", EvalSpec{Edge: 1})
	if err != nil {
		t.Fatalf("revive at %d categories: %v", cfg.Cats, err)
	}
	if after.LnLBits != before.LnLBits {
		t.Errorf("revive changed the likelihood: %s -> %s", before.LnLBits, after.LnLBits)
	}
}

// TestServiceSessionMetricsDoNotCollide: one session's metrics never
// alias another's. A name that another's metric prefix is a prefix of
// ("a." of "a.b.") lost its counters when the other was deleted, and
// names that export alike ("x-1" and "x_1") emitted every family twice,
// which a Prometheus parser rejects. Such names are refused with a 400.
func TestServiceSessionMetricsDoNotCollide(t *testing.T) {
	dir := t.TempDir()
	alnPath, _, _ := writeTestAlignment(t, dir, 8, 150, 31)
	srv := newTestServer(t, ServerConfig{DataDir: dir})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	c := NewClient(hs.URL)
	var live []string
	for _, name := range []string{"a", "a.b", "a_b", "x-1", "x_1"} {
		doc, err := json.Marshal(baseSession(name, alnPath))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(hs.URL+"/v1/sessions", "application/json", bytes.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusCreated:
			live = append(live, name)
			if _, err := c.Evaluate(name, EvalSpec{}); err != nil {
				t.Fatal(err)
			}
		case http.StatusBadRequest:
		default:
			t.Fatalf("create %q: HTTP %d %s, want 201 or 400", name, resp.StatusCode, body)
		}
	}
	if len(live) == 0 || live[0] != "a" {
		t.Fatalf("sessions created: %v, want \"a\" among them", live)
	}
	if err := c.DeleteSession("a"); err != nil {
		t.Fatal(err)
	}

	var snap struct{ Counters map[string]int64 }
	if err := json.Unmarshal(get("/debug/vars"), &snap); err != nil {
		t.Fatal(err)
	}
	for _, name := range live[1:] {
		if n, ok := snap.Counters[metricsPrefix(name)+"evals"]; !ok || n != 1 {
			t.Errorf("after deleting \"a\", session %q exports evals=%d (present %v), want 1", name, n, ok)
		}
	}

	families := map[string]bool{}
	for _, line := range strings.Split(string(get("/debug/metrics")), "\n") {
		if f, ok := strings.CutPrefix(line, "# TYPE "); ok {
			f, _, _ = strings.Cut(f, " ")
			if families[f] {
				t.Errorf("metric family %s appears twice in /debug/metrics", f)
			}
			families[f] = true
		}
	}
}

// TestServiceIdleTimeout: an idle timeout below minIdleTimeout is
// refused (a 3 ns one gave the reaper a zero tick, which panicked in
// its goroutine), and at the floor the reaper parks an idle session,
// which the next evaluate revives.
func TestServiceIdleTimeout(t *testing.T) {
	dir := t.TempDir()
	if srv, err := NewServer(ServerConfig{DataDir: dir, IdleTimeout: 3}); err == nil {
		srv.Close()
		t.Fatal("NewServer accepted a 3 ns idle timeout")
	}
	alnPath, _, _ := writeTestAlignment(t, dir, 8, 150, 37)
	srv := newTestServer(t, ServerConfig{DataDir: dir, IdleTimeout: minIdleTimeout})
	ses, err := srv.CreateSession(baseSession("idle", alnPath))
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ses.infoSnapshot().State != "parked"; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the reaper never parked the idle session")
		}
	}
	if _, err := ses.Evaluate(EvalSpec{}); err != nil {
		t.Fatalf("evaluate after an idle park: %v", err)
	}
	if info := ses.infoSnapshot(); info.Parks == 0 || info.Revives == 0 {
		t.Errorf("parks=%d revives=%d, want both above 0", info.Parks, info.Revives)
	}
}

// TestServiceOptimizeAndTree smokes the optimize job and the tree
// endpoint: smoothing improves (or keeps) the likelihood and the
// Newick round-trips.
func TestServiceOptimizeAndTree(t *testing.T) {
	dir := t.TempDir()
	alnPath, _, _ := writeTestAlignment(t, dir, 8, 200, 29)
	srv := newTestServer(t, ServerConfig{DataDir: dir})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	c := NewClient(hs.URL)

	if _, err := c.CreateSession(baseSession("opt", alnPath)); err != nil {
		t.Fatal(err)
	}
	before, err := c.Evaluate("opt", EvalSpec{Edge: 0})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Optimize("opt", OptimizeSpec{Passes: 2})
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	if rep.LnL < before.LnL {
		t.Errorf("smoothing worsened lnL: %v -> %v", before.LnL, rep.LnL)
	}
	if !strings.HasSuffix(strings.TrimSpace(rep.Newick), ";") {
		t.Errorf("optimize newick malformed: %q", rep.Newick)
	}
	nwk, err := c.Tree("opt")
	if err != nil {
		t.Fatal(err)
	}
	if nwk != rep.Newick {
		t.Errorf("tree endpoint %q != optimize newick %q", nwk, rep.Newick)
	}
}
