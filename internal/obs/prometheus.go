package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Prometheus text exposition (version 0.0.4) of a registry snapshot —
// the /debug/metrics payload. Every instrument in the registry is
// exported:
//
//   - counters as `<name>_total` (TYPE counter)
//   - gauges as `<name>` plus the high-water mark `<name>_max`
//   - float gauges as `<name>`
//   - histograms as cumulative `<name>_bucket{le="..."}` series plus
//     `<name>_sum` and `<name>_count` (TYPE histogram)
//   - the info map as a single `oocphylo_info` gauge with one label
//     per key
//
// Dotted registry names become underscore-separated metric names
// ("ooc.bytes_read" → "ooc_bytes_read_total").

// promName sanitizes a registry name into a valid Prometheus metric
// name: [a-zA-Z_:][a-zA-Z0-9_:]*.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i, r := range name {
		valid := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if !valid {
			if i == 0 && r >= '0' && r <= '9' {
				b.WriteByte('_')
				b.WriteRune(r)
				continue
			}
			b.WriteByte('_')
			continue
		}
		b.WriteRune(r)
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// promLabelEscape escapes a label value per the exposition format.
func promLabelEscape(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// promFloat renders a float sample value ("+Inf"/"-Inf"/"NaN" style
// special values never occur here: snapshots sanitize them).
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes the snapshot in Prometheus text exposition
// format. A nil snapshot writes nothing.
func WritePrometheus(w io.Writer, s *Snapshot) error {
	if s == nil {
		return nil
	}
	bw := bufio.NewWriter(w)

	for _, k := range sortedKeys(s.Counters) {
		n := promName(k)
		if !strings.HasSuffix(n, "_total") {
			n += "_total"
		}
		fmt.Fprintf(bw, "# HELP %s Counter %s.\n# TYPE %s counter\n%s %d\n", n, k, n, n, s.Counters[k])
	}
	for _, k := range sortedKeys(s.Gauges) {
		n := promName(k)
		g := s.Gauges[k]
		fmt.Fprintf(bw, "# HELP %s Gauge %s.\n# TYPE %s gauge\n%s %d\n", n, k, n, n, g.Value)
		fmt.Fprintf(bw, "# HELP %s_max High-water mark of %s.\n# TYPE %s_max gauge\n%s_max %d\n", n, k, n, n, g.Max)
	}
	for _, k := range sortedKeys(s.FloatGauges) {
		n := promName(k)
		fmt.Fprintf(bw, "# HELP %s Gauge %s.\n# TYPE %s gauge\n%s %s\n", n, k, n, n, promFloat(s.FloatGauges[k]))
	}
	for _, k := range sortedKeys(s.Histograms) {
		n := promName(k)
		h := s.Histograms[k]
		fmt.Fprintf(bw, "# HELP %s Histogram %s.\n# TYPE %s histogram\n", n, k, n)
		// Snapshot buckets are per-bucket counts, one per bound;
		// cumulate and close with the +Inf bucket == count.
		var cum int64
		for _, b := range h.Buckets {
			if math.IsInf(b.UpperBound, 1) {
				break // +Inf emitted below from the total count
			}
			cum += b.Count
			fmt.Fprintf(bw, "%s_bucket{le=%q} %d\n", n, promFloat(b.UpperBound), cum)
		}
		fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", n, h.Count)
		fmt.Fprintf(bw, "%s_sum %s\n", n, promFloat(h.Sum))
		fmt.Fprintf(bw, "%s_count %d\n", n, h.Count)
	}
	if len(s.Info) > 0 {
		var lb strings.Builder
		for i, k := range sortedKeys(s.Info) {
			if i > 0 {
				lb.WriteByte(',')
			}
			fmt.Fprintf(&lb, "%s=\"%s\"", promName(k), promLabelEscape(s.Info[k]))
		}
		fmt.Fprintf(bw, "# HELP oocphylo_info Static run annotations.\n# TYPE oocphylo_info gauge\noocphylo_info{%s} 1\n", lb.String())
	}
	return bw.Flush()
}
