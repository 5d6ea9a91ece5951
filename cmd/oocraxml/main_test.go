package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// writeTestData generates a small dataset via the sim pipeline once per
// test, through the public simseq-equivalent path (we write the files
// directly to keep the test self-contained).
func writeTestData(t *testing.T) (phyPath, nwkPath string) {
	t.Helper()
	dir := t.TempDir()
	phyPath = filepath.Join(dir, "data.phy")
	nwkPath = filepath.Join(dir, "tree.nwk")
	phy := `6 40
ta ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT
tb ACGTACGTACGAACGTACGTACGTACGTACGTACGTACGA
tc ACGTACGAACGAACGTACGTACGTTCGTACGTACGTACGA
td TCGTACGAACGAACGTACGTACGTTCGTACGAACGTACGA
te TCGTACGAACGAACGTACGTACGCTCGTACGAACGTACGA
tf TCGAACGAACGAACGTACGTACGCTCGTACGAACGTTCGA
`
	if err := os.WriteFile(phyPath, []byte(phy), 0o644); err != nil {
		t.Fatal(err)
	}
	nwk := "((ta:0.1,tb:0.1):0.05,(tc:0.1,td:0.1):0.05,(te:0.1,tf:0.1):0.05);"
	if err := os.WriteFile(nwkPath, []byte(nwk), 0o644); err != nil {
		t.Fatal(err)
	}
	return phyPath, nwkPath
}

// capture runs the CLI with output captured to a temp file.
func capture(t *testing.T, args ...string) (string, error) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	runErr := run(args, f)
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data), runErr
}

func TestSearchModeInMemory(t *testing.T) {
	phy, _ := writeTestData(t)
	out, err := capture(t, "-s", phy, "-m", "HKY", "-a", "0.8", "-rounds", "2", "-stats")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Alignment: 6 taxa, 40 sites", "Log likelihood:", "Engine:", "("} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTraversalModeOutOfCore(t *testing.T) {
	phy, nwk := writeTestData(t)
	out, err := capture(t, "-s", phy, "-t", nwk, "-f", "z", "-k", "3",
		"-L", "5000", "-strategy", "random", "-stats")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Out-of-core:", "Completed 3 full tree traversals", "misses"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestEvaluateModeMatchesAcrossProviders(t *testing.T) {
	phy, nwk := writeTestData(t)
	inMem, err := capture(t, "-s", phy, "-t", nwk, "-f", "e", "-m", "JC", "-a", "0")
	if err != nil {
		t.Fatal(err)
	}
	ooc, err := capture(t, "-s", phy, "-t", nwk, "-f", "e", "-m", "JC", "-a", "0",
		"-L", "5000", "-strategy", "topological")
	if err != nil {
		t.Fatal(err)
	}
	lnl := func(s string) string {
		for _, line := range strings.Split(s, "\n") {
			if strings.HasPrefix(line, "Log likelihood:") {
				return line
			}
		}
		return ""
	}
	if lnl(inMem) == "" || lnl(inMem) != lnl(ooc) {
		t.Errorf("likelihoods differ across providers:\n%q\n%q", lnl(inMem), lnl(ooc))
	}
}

func TestStartTreeKinds(t *testing.T) {
	phy, _ := writeTestData(t)
	for _, kind := range []string{"parsimony", "nj", "random"} {
		out, err := capture(t, "-s", phy, "-m", "JC", "-rounds", "1", "-start", kind)
		if err != nil {
			t.Fatalf("start=%s: %v", kind, err)
		}
		if !strings.Contains(out, "Log likelihood:") {
			t.Errorf("start=%s: no likelihood in output", kind)
		}
	}
	if _, err := capture(t, "-s", phy, "-start", "upgma"); err == nil {
		t.Error("unknown start tree kind must fail")
	}
}

func TestBootstrapAnnotation(t *testing.T) {
	phy, _ := writeTestData(t)
	out, err := capture(t, "-s", phy, "-m", "JC", "-a", "0", "-rounds", "1", "-bootstrap", "3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "bootstrap replicates") || !strings.Contains(out, "Mean bipartition support") {
		t.Errorf("bootstrap output incomplete:\n%s", out)
	}
}

func TestWriteTreeToFile(t *testing.T) {
	phy, nwk := writeTestData(t)
	treeOut := filepath.Join(t.TempDir(), "result.nwk")
	if _, err := capture(t, "-s", phy, "-t", nwk, "-f", "e", "-m", "JC", "-w", treeOut); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(treeOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "ta") || !strings.HasSuffix(strings.TrimSpace(string(data)), ";") {
		t.Errorf("result tree malformed: %s", data)
	}
}

func TestCLIErrors(t *testing.T) {
	phy, nwk := writeTestData(t)
	cases := [][]string{
		{},                            // no alignment
		{"-s", "/does/not/exist.phy"}, // missing file
		{"-s", phy, "-m", "BOGUS"},
		{"-s", phy, "-f", "q"},
		{"-s", phy, "-t", "/does/not/exist.nwk"},
		{"-s", phy, "-L", "100"}, // limit below 3 slots
		{"-s", phy, "-L", "20000", "-strategy", "bogus"},
		{"-s", phy, "-t", nwk, "-aa"},        // AA alphabet on DNA data fails parse
		{"-s", phy, "-c", "300", "-a", "1"},  // a checkpoint of it could not be restored
		{"-s", phy, "-threads", "100000000"}, // past analysis.MaxWorkers
	}
	for _, args := range cases {
		if _, err := capture(t, args...); err == nil {
			t.Errorf("args %v should fail", args)
		}
	}
}

func TestFASTAInput(t *testing.T) {
	dir := t.TempDir()
	fa := filepath.Join(dir, "d.fa")
	content := ">x\nACGTACGTAC\n>y\nACGAACGTAC\n>z\nACGAACGAAC\n"
	if err := os.WriteFile(fa, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, "-s", fa, "-fasta", "-m", "JC", "-a", "0", "-rounds", "1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "3 taxa, 10 sites") {
		t.Errorf("fasta input not parsed:\n%s", out)
	}
}

// TestCheckpointAndResume checkpoints an out-of-core search over an
// explicit, verified -backing file and resumes it. A run leaves the
// backing file and the checkpoint on disk and nothing else; a resume
// reads none of the old vectors, so (as further inputs) a checkpoint
// still carrying PR 22's "store" block resumes, and resuming over the
// first run's backing file, whose stale vectors have the resume's own
// geometry, is bit-identical to the same resume over a fresh temp file.
func TestCheckpointAndResume(t *testing.T) {
	phy, _ := writeTestData(t)
	dir := t.TempDir()
	ckpt, backing := filepath.Join(dir, "run.ckpt"), filepath.Join(dir, "run.vec")
	// A fresh search from a random start should run at least one round
	// and write the checkpoint.
	out, err := capture(t, "-s", phy, "-m", "HKY", "-a", "0.8", "-rounds", "3",
		"-start", "random", "-seed", "1", "-checkpoint", ckpt,
		"-L", "5000", "-backing", backing)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Out-of-core:") {
		t.Fatalf("search did not go out of core:\n%s", out)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Skipf("no round completed with an improvement; checkpoint not written (%s)", out)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Errorf("run left %v; want only run.ckpt and run.vec", ents)
	}

	// The checkpoint as a pre-PR-23 run would have written it.
	var doc map[string]any
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	doc["store"] = map[string]any{"num_vectors": 4, "vector_len": 192, "generation": 99, "sum_of_sums": 12345}
	if data, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, data, 0o644); err != nil {
		t.Fatal(err)
	}
	ckpt2 := filepath.Join(t.TempDir(), "copy.ckpt")
	if err := os.WriteFile(ckpt2, data, 0o644); err != nil {
		t.Fatal(err)
	}

	resumed, err := capture(t, "-s", phy, "-resume", ckpt, "-rounds", "1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resumed, "Resumed from") {
		t.Errorf("resume banner missing:\n%s", resumed)
	}
	if !strings.Contains(resumed, "Log likelihood:") {
		t.Error("resumed run did not complete")
	}

	again := []string{"-s", phy, "-rounds", "6", "-L", "5000", "-lnl-bits", "-checkpoint"}
	over, err := capture(t, append(again, ckpt, "-resume", ckpt, "-backing", backing)...)
	if err != nil {
		t.Fatalf("resume over the first run's backing file: %v\n%s", err, over)
	}
	fresh, err := capture(t, append(again, ckpt2, "-resume", ckpt2)...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(over, "Out-of-core:") || !strings.Contains(over, "Search:") {
		t.Errorf("resume did no out-of-core search:\n%s", over)
	}
	if ob, fb := lnlBitsLine(over), lnlBitsLine(fresh); ob == "" || ob != fb {
		t.Errorf("resume over leftovers %q, over a fresh file %q", ob, fb)
	}
	lastLine := func(s string) string {
		lines := strings.Split(strings.TrimSpace(s), "\n")
		return lines[len(lines)-1]
	}
	if lastLine(over) != lastLine(fresh) {
		t.Errorf("result trees differ:\n%s\n%s", lastLine(over), lastLine(fresh))
	}
}

func TestResumeErrors(t *testing.T) {
	phy, _ := writeTestData(t)
	if _, err := capture(t, "-s", phy, "-resume", "/no/such.ckpt"); err == nil {
		t.Error("missing checkpoint must fail")
	}
}

func TestNNIMode(t *testing.T) {
	phy, _ := writeTestData(t)
	out, err := capture(t, "-s", phy, "-m", "JC", "-a", "0", "-f", "n", "-rounds", "2", "-start", "nj")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "NNI search:") || !strings.Contains(out, "Log likelihood:") {
		t.Errorf("NNI mode output incomplete:\n%s", out)
	}
}

func TestPAMLModelEndToEnd(t *testing.T) {
	dir := t.TempDir()
	// Protein alignment.
	fa := filepath.Join(dir, "p.fa")
	prot := ">p1\nARNDCQEGHILKMFPSTWYV\n>p2\nARNDCQEGHILKMFPSTWYW\n>p3\nARNECQEGHILKMFPSTWYW\n>p4\nGRNECQEGHILKMFPSTWYW\n"
	if err := os.WriteFile(fa, []byte(prot), 0o644); err != nil {
		t.Fatal(err)
	}
	// Synthetic PAML matrix: all rates 1 with mildly non-uniform freqs.
	var sb strings.Builder
	for i := 1; i < 20; i++ {
		for j := 0; j < i; j++ {
			sb.WriteString("1.0 ")
		}
		sb.WriteByte('\n')
	}
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&sb, "%g ", 1.0/20)
	}
	sb.WriteByte('\n')
	dat := filepath.Join(dir, "synth.dat")
	if err := os.WriteFile(dat, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, "-s", fa, "-fasta", "-aa", "-m", "PAML", "-aamodel", dat,
		"-a", "0", "-rounds", "1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Model: SYNTH") || !strings.Contains(out, "Log likelihood:") {
		t.Errorf("PAML run incomplete:\n%s", out)
	}
	// Misconfigurations fail.
	if _, err := capture(t, "-s", fa, "-fasta", "-aa", "-m", "PAML"); err == nil {
		t.Error("PAML without -aamodel must fail")
	}
	if _, err := capture(t, "-s", fa, "-fasta", "-aa", "-m", "PAML", "-aamodel", "/no/file"); err == nil {
		t.Error("missing dat file must fail")
	}
}

func TestPInvFlag(t *testing.T) {
	phy, nwk := writeTestData(t)
	out, err := capture(t, "-s", phy, "-t", nwk, "-f", "e", "-m", "JC", "-pinv", "0.2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Final pInv:") {
		t.Errorf("pInv output missing:\n%s", out)
	}
	if _, err := capture(t, "-s", phy, "-pinv", "1.5"); err == nil {
		t.Error("invalid pInv must fail")
	}
}

// lnlLine extracts the "Log likelihood:" line from CLI output.
func lnlLine(t *testing.T, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "Log likelihood:") {
			return line
		}
	}
	t.Fatalf("no log-likelihood line in output:\n%s", out)
	return ""
}

func TestReportFlagConsolidated(t *testing.T) {
	phy, nwk := writeTestData(t)
	out, err := capture(t, "-s", phy, "-t", nwk, "-f", "z", "-k", "2",
		"-L", "5000", "-strategy", "lru", "-stats")
	if err != nil {
		t.Fatal(err)
	}
	// The consolidated report keeps the legacy headline lines and adds
	// the per-layer registry sections, the pipeline's included.
	for _, want := range []string{
		"Engine:", "Kernels:", "Out-of-core:",
		"[likelihood engine]", "[out-of-core manager]", "[async I/O pipeline]",
		"fault_in_seconds", "fetches_queued",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestHTTPFlag(t *testing.T) {
	phy, nwk := writeTestData(t)
	out, err := capture(t, "-s", phy, "-t", nwk, "-f", "z", "-k", "2",
		"-L", "5000", "-http", "127.0.0.1:0", "-stats")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Debug endpoint: http://127.0.0.1:") {
		t.Errorf("endpoint banner missing:\n%s", out)
	}
	// A bound port cannot be reused: occupying a port first must fail.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if _, err := capture(t, "-s", phy, "-http", ln.Addr().String()); err == nil {
		t.Error("occupied -http address must fail")
	}
}

// TestHTTPEndpointLive curls /debug/vars and /debug/trace while an
// out-of-core run is in flight: the server comes up before the alignment
// loads, so polling from a second goroutine observes it as long as the
// workload runs for a few milliseconds. The trace must show the run's
// fault-ins on the compute row and background fetches on a worker's
// row. If the run wins the race anyway the test skips — the mux
// round-trips are covered deterministically in internal/obs.
func TestHTTPEndpointLive(t *testing.T) {
	// Large enough that traversals stage reads through the fetch workers.
	phy, nwk, memLimit := soakDataset(t, t.TempDir(), 24, 64)
	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-s", phy, "-t", nwk, "-f", "z", "-k", "2000",
			"-L", fmt.Sprint(memLimit), "-strategy", "lru", "-http", "127.0.0.1:0"}, f)
	}()
	get := func(url string) []byte {
		resp, err := http.Get(url)
		if err != nil {
			return nil
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			return nil
		}
		return body
	}
	var vars []byte
	var rows map[float64]string
	var spanRows map[string][]float64
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		data, _ := os.ReadFile(f.Name())
		if i := strings.Index(string(data), "Debug endpoint: http://"); i >= 0 {
			addr := strings.Fields(string(data)[i+len("Debug endpoint: "):])[0]
			if vars == nil {
				vars = get(addr + "debug/vars")
			}
			var doc struct {
				TraceEvents []map[string]any `json:"traceEvents"`
			}
			if vars != nil && json.Unmarshal(get(addr+"debug/trace"), &doc) == nil {
				rows, spanRows = map[float64]string{}, map[string][]float64{}
				for _, e := range doc.TraceEvents {
					tid, _ := e["tid"].(float64)
					name, _ := e["name"].(string)
					switch e["ph"] {
					case "M":
						rows[tid], _ = e["args"].(map[string]any)["name"].(string)
					case "X":
						spanRows[name] = append(spanRows[name], tid)
					}
				}
				if len(spanRows["ooc.fault_in"]) > 0 && len(spanRows["pipe.fetch"]) > 0 {
					break
				}
			}
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			t.Skip("run finished before the endpoint could be polled")
		case <-time.After(5 * time.Millisecond):
		}
	}
	if vars == nil {
		t.Fatal("no /debug/vars response within deadline")
	}
	var doc map[string]any
	if err := json.Unmarshal(vars, &doc); err != nil {
		t.Fatalf("/debug/vars is not valid JSON: %v\n%s", err, vars)
	}
	if _, ok := doc["counters"]; !ok {
		t.Errorf("/debug/vars missing counters: %s", vars)
	}
	if len(spanRows["ooc.fault_in"]) == 0 || len(spanRows["pipe.fetch"]) == 0 {
		t.Fatalf("/debug/trace lacks ooc.fault_in or pipe.fetch spans: %v", rows)
	}
	for _, tid := range spanRows["ooc.fault_in"] {
		if strings.Contains(rows[tid], " lane ") {
			t.Errorf("ooc.fault_in drawn on %q, want the compute row", rows[tid])
		}
	}
	for _, tid := range spanRows["pipe.fetch"] {
		if !strings.Contains(rows[tid], " lane ") {
			t.Errorf("pipe.fetch drawn on %q, want an I/O worker's row", rows[tid])
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestKernelFlag(t *testing.T) {
	phy, nwk := writeTestData(t)
	base := []string{"-s", phy, "-t", nwk, "-f", "z", "-k", "2", "-m", "HKY", "-a", "0.7", "-stats"}
	outAuto, err := capture(t, base...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(outAuto, "Kernels: dna4 (auto mode)") || !strings.Contains(outAuto, "P cache") {
		t.Errorf("auto-mode stats missing kernel/cache line:\n%s", outAuto)
	}
	outGen, err := capture(t, append([]string{"-kernel", "generic"}, base...)...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(outGen, "Kernels: generic (generic mode)") {
		t.Errorf("generic-mode stats missing kernel line:\n%s", outGen)
	}
	if strings.Contains(outGen, "P cache") {
		t.Errorf("generic mode must not report cache traffic:\n%s", outGen)
	}
	if lnlLine(t, outAuto) != lnlLine(t, outGen) {
		t.Errorf("kernel modes disagree:\n%s\n%s", lnlLine(t, outAuto), lnlLine(t, outGen))
	}
	if _, err := capture(t, append([]string{"-kernel", "sse3"}, base...)...); err == nil {
		t.Error("unknown kernel mode must fail")
	}
}
