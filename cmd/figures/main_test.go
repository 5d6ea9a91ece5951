package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// captureStdout redirects os.Stdout for the duration of fn.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		buf := make([]byte, 1<<20)
		var out []byte
		for {
			n, err := r.Read(buf)
			out = append(out, buf[:n]...)
			if err != nil {
				break
			}
		}
		done <- string(out)
	}()
	runErr := fn()
	w.Close()
	os.Stdout = old
	return <-done, runErr
}

func TestFiguresTinyRun(t *testing.T) {
	if testing.Short() {
		t.Skip("figure regeneration is slow")
	}
	out, err := captureStdout(t, func() error {
		return run([]string{"-fig", "2", "-taxa", "24", "-sites", "40", "-rounds", "1"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 2", "LRU", "LFU", "Topological", "miss%"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestFiguresFigure5Tiny(t *testing.T) {
	if testing.Short() {
		t.Skip("figure regeneration is slow")
	}
	out, err := captureStdout(t, func() error {
		return run([]string{"-fig", "5", "-f5taxa", "24"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "pagefaults") || !strings.Contains(out, "ooc-lru") {
		t.Errorf("figure 5 output malformed:\n%s", out)
	}
}

func TestFiguresTimelineTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("figure regeneration is slow")
	}
	trace := filepath.Join(t.TempDir(), "trace.json")
	out, err := captureStdout(t, func() error {
		return run([]string{"-fig", "timeline", "-taxa", "24", "-sites", "64", "-trace-out", trace})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Recovery ablation", "recovered", "[out-of-core manager]", "trace written to"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline output missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("trace has no events")
	}
}

func TestFiguresUnknown(t *testing.T) {
	if _, err := captureStdout(t, func() error {
		return run([]string{"-fig", "9"})
	}); err == nil {
		t.Error("unknown figure must fail")
	}
	if _, err := captureStdout(t, func() error {
		return run([]string{"-nope"})
	}); err == nil {
		t.Error("unknown flag must fail")
	}
}

func TestFiguresFig3And4Tiny(t *testing.T) {
	if testing.Short() {
		t.Skip("figure regeneration is slow")
	}
	out, err := captureStdout(t, func() error {
		return run([]string{"-fig", "3", "-taxa", "24", "-sites", "40", "-rounds", "1"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "read skipping enabled") {
		t.Errorf("figure 3 output malformed:\n%s", out)
	}
	out, err = captureStdout(t, func() error {
		return run([]string{"-fig", "4", "-taxa", "24", "-sites", "40", "-rounds", "1"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "RAND strategy") {
		t.Errorf("figure 4 output malformed:\n%s", out)
	}
}
