package bio

import (
	"bytes"
	"io"
	"slices"
	"strings"
	"testing"
)

// An alignment arrives from outside the process (a file on the command
// line, a daemon session created over HTTP), so both readers are
// fuzzed. Each owes the same property: never panic, and whatever it
// accepts survives a round trip through the matching writer with the
// same names and the same encoded sequences. The committed corpora
// under testdata/fuzz hold the edge cases; protein picks the alphabet.

func FuzzReadPhylip(f *testing.F) {
	f.Add("2 4\na ACGT\nb AC-N\n", false)
	f.Fuzz(func(t *testing.T, in string, protein bool) {
		roundTrip(t, in, protein, ReadPhylip, WritePhylip)
	})
}

func FuzzReadFASTA(f *testing.F) {
	f.Add(">a\nACGT\n>b\nAC-N\n", false)
	f.Fuzz(func(t *testing.T, in string, protein bool) {
		roundTrip(t, in, protein, ReadFASTA, WriteFASTA)
	})
}

func roundTrip(t *testing.T, in string, protein bool,
	read func(io.Reader, *Alphabet) (*Alignment, error),
	write func(io.Writer, *Alignment) error) {
	a := NewAlphabet(DNA)
	if protein {
		a = NewAlphabet(AA)
	}
	m, err := read(strings.NewReader(in), a)
	if err != nil {
		return // rejection is fine; panics are not
	}
	var buf bytes.Buffer
	if err := write(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := read(strings.NewReader(buf.String()), a)
	if err != nil {
		t.Fatalf("own output does not re-parse: %v\ninput: %q\noutput: %q", err, in, buf.String())
	}
	if !slices.Equal(back.Names, m.Names) {
		t.Fatalf("names %q came back as %q", m.Names, back.Names)
	}
	for i := range m.Seqs {
		if !slices.Equal(back.Seqs[i], m.Seqs[i]) {
			t.Fatalf("sequence %q changed in the round trip\ninput: %q\noutput: %q", m.Names[i], in, buf.String())
		}
	}
}
