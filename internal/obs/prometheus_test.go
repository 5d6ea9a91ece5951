package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"ooc.bytes_read":   "ooc_bytes_read",
		"svc.session.d-1":  "svc_session_d_1",
		"plf:newviews":     "plf:newviews",
		"9lives":           "_9lives",
		"":                 "_",
		"already_fine_123": "already_fine_123",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("ooc.reads").Add(42)
	reg.Gauge("svc.sessions").Set(3)
	reg.FloatGauge("pipe.stall_seconds").Set(0.997)
	h := reg.Histogram("svc.request_seconds", []float64{0.1, 0.5, 1})
	h.Observe(0.05)
	h.Observe(0.3)
	h.Observe(2.5)
	reg.SetInfo("run.mode", `quoted "value"`)

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	text := buf.String()

	for _, want := range []string{
		"# TYPE ooc_reads_total counter",
		"ooc_reads_total 42",
		"# TYPE svc_sessions gauge",
		"svc_sessions 3",
		"pipe_stall_seconds 0.997",
		"# TYPE svc_request_seconds histogram",
		`svc_request_seconds_bucket{le="1"} 2`, // empty, still exported
		`svc_request_seconds_bucket{le="+Inf"} 3`,
		"svc_request_seconds_count 3",
		`run_mode="quoted \"value\""`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}

	// Buckets must be cumulative: le="0.5" includes the 0.05 observation.
	var cum05 int64 = -1
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, `svc_request_seconds_bucket{le="0.5"}`) {
			fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &cum05)
		}
	}
	if cum05 != 2 {
		t.Errorf(`le="0.5" bucket = %d, want cumulative 2`, cum05)
	}

	// Every sample line must parse: <name>{labels} <value> with a valid
	// float value — the shape Prometheus's text parser demands.
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			t.Errorf("malformed sample line %q", line)
			continue
		}
		if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
			t.Errorf("sample %q: value does not parse: %v", line, err)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if promName(name) != name {
			t.Errorf("sample %q: metric name %q is not a valid Prometheus name", line, name)
		}
	}
}

func TestWritePrometheusNilSnapshot(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("nil snapshot wrote %q", buf.String())
	}
}
