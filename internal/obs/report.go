package obs

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// The consolidated report: one formatted text document sourced
// entirely from a registry snapshot, replacing the per-layer -stats
// dumps. Instruments are grouped into sections by their name prefix
// (the part before the first dot: "ooc.hits" → section "ooc"), so a
// new instrumented layer shows up without touching this file.

// sectionOrder pins the known layers to a stable, narrative order;
// unknown prefixes follow alphabetically.
var sectionOrder = []string{"plf", "ooc", "pipe", "search", "svc", "obs"}

// sectionTitles maps prefixes to human headings.
var sectionTitles = map[string]string{
	"plf":    "likelihood engine",
	"ooc":    "out-of-core manager",
	"pipe":   "async I/O pipeline",
	"search": "tree search",
	"svc":    "PLF service",
	"obs":    "observability health",
}

// WriteReport renders the snapshot as the consolidated -stats report.
func WriteReport(w io.Writer, s *Snapshot) {
	if s == nil {
		return
	}
	if len(s.Info) > 0 {
		keys := sortedKeys(s.Info)
		fmt.Fprintf(w, "Run info:")
		for _, k := range keys {
			fmt.Fprintf(w, " %s=%s", k, s.Info[k])
		}
		fmt.Fprintln(w)
	}
	for _, sec := range reportSections(s) {
		lines := sectionLines(s, sec)
		if len(lines) == 0 {
			continue
		}
		title := sectionTitles[sec]
		if title == "" {
			title = sec
		}
		fmt.Fprintf(w, "[%s]\n", title)
		for _, l := range lines {
			fmt.Fprintf(w, "  %s\n", l)
		}
	}
}

// reportSections lists the prefixes present in the snapshot, known
// layers first.
func reportSections(s *Snapshot) []string {
	seen := map[string]bool{}
	collect := func(name string) {
		seen[prefixOf(name)] = true
	}
	for k := range s.Counters {
		collect(k)
	}
	for k := range s.Gauges {
		collect(k)
	}
	for k := range s.FloatGauges {
		collect(k)
	}
	for k := range s.Histograms {
		collect(k)
	}
	var out []string
	for _, p := range sectionOrder {
		if seen[p] {
			out = append(out, p)
			delete(seen, p)
		}
	}
	out = append(out, sortedKeys(seen)...)
	return out
}

func prefixOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

func shortName(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[i+1:]
	}
	return name
}

// sectionLines renders one section's instruments, counters first, then
// gauges, float gauges and histograms, each alphabetically.
func sectionLines(s *Snapshot, prefix string) []string {
	var lines []string
	for _, k := range sortedKeys(s.Counters) {
		if prefixOf(k) != prefix {
			continue
		}
		lines = append(lines, fmt.Sprintf("%-28s %d", shortName(k), s.Counters[k]))
	}
	for _, k := range sortedKeys(s.Gauges) {
		if prefixOf(k) != prefix {
			continue
		}
		g := s.Gauges[k]
		lines = append(lines, fmt.Sprintf("%-28s %d (max %d)", shortName(k), g.Value, g.Max))
	}
	for _, k := range sortedKeys(s.FloatGauges) {
		if prefixOf(k) != prefix {
			continue
		}
		lines = append(lines, fmt.Sprintf("%-28s %.6g", shortName(k), s.FloatGauges[k]))
	}
	for _, k := range sortedKeys(s.Histograms) {
		if prefixOf(k) != prefix {
			continue
		}
		h := s.Histograms[k]
		lines = append(lines, fmt.Sprintf("%-28s n=%d mean=%s p50=%s p90=%s p99=%s",
			shortName(k), h.Count, secs(h.Mean), secs(h.P50), secs(h.P90), secs(h.P99)))
	}
	return lines
}

// secs formats a seconds quantity as a rounded duration (histograms in
// this repo are all latency histograms).
func secs(v float64) string {
	d := time.Duration(v * float64(time.Second))
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	default:
		return d.Round(time.Nanosecond).String()
	}
}
