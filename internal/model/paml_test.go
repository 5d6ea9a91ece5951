package model

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// syntheticPAML builds a valid .dat body with distinctive rates so the
// triangle mapping can be verified entry by entry.
func syntheticPAML() (string, func(i, j int) float64, []float64) {
	rate := func(i, j int) float64 { // i < j
		return float64(i*100+j) + 0.5
	}
	var b strings.Builder
	for i := 1; i < 20; i++ {
		for j := 0; j < i; j++ {
			fmt.Fprintf(&b, "%g ", rate(j, i))
		}
		b.WriteByte('\n')
	}
	b.WriteByte('\n')
	freqs := make([]float64, 20)
	sum := 0.0
	for i := range freqs {
		freqs[i] = float64(i + 1)
		sum += freqs[i]
	}
	for i := range freqs {
		freqs[i] /= sum
		fmt.Fprintf(&b, "%.17g ", freqs[i])
	}
	b.WriteString("\n\nSome trailing commentary like real PAML files have.\n")
	return b.String(), rate, freqs
}

func TestReadPAMLMapsTriangleCorrectly(t *testing.T) {
	body, rate, freqs := syntheticPAML()
	m, err := ReadPAML(strings.NewReader(body), "SYNTH")
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "SYNTH" || m.States != 20 {
		t.Fatalf("model header wrong: %s/%d", m.Name, m.States)
	}
	// Exchangeabilities preserved in upper-triangle order.
	idx := 0
	for i := 0; i < 20; i++ {
		for j := i + 1; j < 20; j++ {
			if m.Exch[idx] != rate(i, j) {
				t.Fatalf("exch (%d,%d) = %v, want %v", i, j, m.Exch[idx], rate(i, j))
			}
			idx++
		}
	}
	// Frequencies normalised and preserved.
	for i, f := range freqs {
		if math.Abs(m.Freqs[i]-f) > 1e-9 {
			t.Fatalf("freq %d = %v, want %v", i, m.Freqs[i], f)
		}
	}
	// The resulting model is a valid reversible model: stochastic P,
	// detailed balance.
	p := make([]float64, 400)
	m.PMatrix(p, 0.3, 1)
	for i := 0; i < 20; i++ {
		row := 0.0
		for j := 0; j < 20; j++ {
			row += p[i*20+j]
			lhs := m.Freqs[i] * p[i*20+j]
			rhs := m.Freqs[j] * p[j*20+i]
			if math.Abs(lhs-rhs) > 1e-10 {
				t.Fatalf("detailed balance broken at (%d,%d)", i, j)
			}
		}
		if math.Abs(row-1) > 1e-9 {
			t.Fatalf("row %d sums to %v", i, row)
		}
	}
}

func TestReadPAMLDefaults(t *testing.T) {
	body, _, _ := syntheticPAML()
	m, err := ReadPAML(strings.NewReader(body), "")
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "PAML20" {
		t.Errorf("default name = %s", m.Name)
	}
}

func TestReadPAMLErrors(t *testing.T) {
	cases := []string{
		"",                       // empty
		"1 2 3",                  // far too short
		"1 2 banana 4",           // junk before completion
		strings.Repeat("1 ", 50), // still short
	}
	for _, in := range cases {
		if _, err := ReadPAML(strings.NewReader(in), "x"); err == nil {
			t.Errorf("input %q should fail", in[:min(20, len(in))])
		}
	}
	// Negative rate: rejected by NewGTR.
	body, _, _ := syntheticPAML()
	bad := strings.Replace(body, "102.5", "-1", 1)
	if _, err := ReadPAML(strings.NewReader(bad), "x"); err == nil {
		t.Error("negative rate must fail")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// FuzzReadPAML: for any input ReadPAML either errors or returns a model
// whose transition matrices are finite at short, medium and long
// branches. It must never panic or hang. The committed corpus holds a
// truncated file, token garbage, and files of huge, tiny, zero and
// negative entries.
func FuzzReadPAML(f *testing.F) {
	valid, _, _ := syntheticPAML()
	f.Add(valid)
	f.Fuzz(func(t *testing.T, body string) {
		m, err := ReadPAML(strings.NewReader(body), "")
		if err != nil {
			return
		}
		p := make([]float64, len(m.Rates)*m.States*m.States)
		for _, bl := range []float64{1e-6, 0.1, 10} {
			m.PMatrices(p, bl)
			for i, v := range p {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("P(%g)[%d] = %v", bl, i, v)
				}
			}
		}
	})
}
