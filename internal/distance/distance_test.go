package distance

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"oocphylo/internal/bio"
	"oocphylo/internal/sim"
	"oocphylo/internal/tree"
)

func patsFrom(t *testing.T, rows map[string]string) *bio.Patterns {
	t.Helper()
	a := bio.NewAlignment(bio.NewDNAAlphabet())
	for _, name := range []string{"a", "b", "c", "d", "e"} {
		if s, ok := rows[name]; ok {
			if err := a.AddString(name, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	p, err := bio.Compress(a)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestJCAnalytic(t *testing.T) {
	// 10 sites, 1 mismatch: p = 0.1, d = -3/4 ln(1 - 4/30).
	p := patsFrom(t, map[string]string{
		"a": "AAAAAAAAAA",
		"b": "AAAAAAAAAC",
	})
	m, err := JC(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	want := -0.75 * math.Log(1-4.0/30)
	if math.Abs(m.At(0, 1)-want) > 1e-12 {
		t.Errorf("JC distance = %v, want %v", m.At(0, 1), want)
	}
	if m.At(0, 0) != 0 || m.At(1, 0) != m.At(0, 1) {
		t.Error("matrix structure wrong")
	}
	if err := m.Check(); err != nil {
		t.Error(err)
	}
}

func TestJCSaturationAndGaps(t *testing.T) {
	// 75%+ mismatches: correction diverges, capped.
	p := patsFrom(t, map[string]string{
		"a": "AAAA",
		"b": "CCCC",
	})
	m, err := JC(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != maxDistance {
		t.Errorf("saturated pair should cap at %v, got %v", maxDistance, m.At(0, 1))
	}
	// All-gap comparisons cap too.
	p2 := patsFrom(t, map[string]string{
		"a": "AA--",
		"b": "--AA",
	})
	m2, err := JC(context.Background(), p2)
	if err != nil {
		t.Fatal(err)
	}
	if m2.At(0, 1) != maxDistance {
		t.Errorf("incomparable pair should cap, got %v", m2.At(0, 1))
	}
	// Identical sequences: distance zero.
	p3 := patsFrom(t, map[string]string{
		"a": "ACGTACGT",
		"b": "ACGTACGT",
	})
	m3, _ := JC(context.Background(), p3)
	if m3.At(0, 1) != 0 {
		t.Errorf("identical pair distance = %v", m3.At(0, 1))
	}
}

func TestNJTreeStopsOnDoneContext(t *testing.T) {
	d, err := sim.NewDataset(sim.Config{Taxa: 8, Sites: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NJTree(ctx, d.Patterns); !errors.Is(err, context.Canceled) {
		t.Errorf("a done context must end the build with its error, got %v", err)
	}
}

// additiveMatrix builds the path-length distance matrix of a tree —
// an exactly additive metric.
func additiveMatrix(tr *tree.Tree) *Matrix {
	n := tr.NumTips
	m := &Matrix{Names: make([]string, n), D: make([]float64, n*n)}
	for i := 0; i < n; i++ {
		m.Names[i] = tr.Nodes[i].Name
	}
	for i := 0; i < n; i++ {
		// BFS with accumulated branch lengths.
		distArr := make([]float64, len(tr.Nodes))
		seen := make([]bool, len(tr.Nodes))
		queue := []*tree.Node{tr.Nodes[i]}
		seen[i] = true
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, e := range cur.Adj {
				o := e.Other(cur)
				if !seen[o.Index] {
					seen[o.Index] = true
					distArr[o.Index] = distArr[cur.Index] + e.Length
					queue = append(queue, o)
				}
			}
		}
		// Mirror the upper triangle: BFS from i and from j can differ by
		// an ulp in summation order, and Matrix.Check is strict.
		for j := i + 1; j < n; j++ {
			m.D[i*n+j] = distArr[j]
			m.D[j*n+i] = distArr[j]
		}
	}
	return m
}

func TestNeighborJoiningRecoversAdditiveTreesProperty(t *testing.T) {
	// THE defining property of NJ: exact recovery from additive input.
	f := func(seed int64, nRaw uint8) bool {
		n := 4 + int(nRaw)%28
		names := make([]string, n)
		for i := range names {
			names[i] = "t" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		}
		rng := rand.New(rand.NewSource(seed))
		truth, err := tree.RandomTopology(names, rng, 0.05, 0.6)
		if err != nil {
			return false
		}
		m := additiveMatrix(truth)
		got, err := NeighborJoining(context.Background(), m)
		if err != nil {
			return false
		}
		if got.Check() != nil {
			return false
		}
		if tree.RFDistance(got, truth) != 0 {
			return false
		}
		// Branch lengths recovered too (within clamping tolerance).
		return math.Abs(got.TotalLength()-truth.TotalLength()) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestNeighborJoiningSmallCases(t *testing.T) {
	m2 := &Matrix{Names: []string{"x", "y"}, D: []float64{0, 0.3, 0.3, 0}}
	tr, err := NeighborJoining(context.Background(), m2)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumTips != 2 || math.Abs(tr.Edges[0].Length-0.3) > 1e-12 {
		t.Error("two-taxon NJ wrong")
	}
	m3 := &Matrix{Names: []string{"x", "y", "z"},
		D: []float64{0, 0.3, 0.5, 0.3, 0, 0.4, 0.5, 0.4, 0}}
	tr3, err := NeighborJoining(context.Background(), m3)
	if err != nil {
		t.Fatal(err)
	}
	if tr3.NumTips != 3 {
		t.Fatal("three-taxon NJ wrong")
	}
	// Three-point solution: a=0.2, b=0.1, c=0.3.
	want := map[string]float64{"x": 0.2, "y": 0.1, "z": 0.3}
	for name, w := range want {
		tip := tr3.TipByName(name)
		if math.Abs(tip.Adj[0].Length-w) > 1e-12 {
			t.Errorf("tip %s length %v, want %v", name, tip.Adj[0].Length, w)
		}
	}
}

func TestNeighborJoiningRejectsBadMatrices(t *testing.T) {
	bad := &Matrix{Names: []string{"a", "b"}, D: []float64{0, 1, 2, 0}} // asymmetric
	if _, err := NeighborJoining(context.Background(), bad); err == nil {
		t.Error("asymmetric matrix must fail")
	}
	neg := &Matrix{Names: []string{"a", "b"}, D: []float64{0, -1, -1, 0}}
	if _, err := NeighborJoining(context.Background(), neg); err == nil {
		t.Error("negative distances must fail")
	}
	diag := &Matrix{Names: []string{"a", "b"}, D: []float64{1, 0, 0, 0}}
	if _, err := NeighborJoining(context.Background(), diag); err == nil {
		t.Error("nonzero diagonal must fail")
	}
}

func TestNJTreeOnSimulatedData(t *testing.T) {
	d, err := sim.NewDataset(sim.Config{Taxa: 16, Sites: 4000, GammaAlpha: 5, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	got, err := NJTree(context.Background(), d.Patterns)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Check(); err != nil {
		t.Fatal(err)
	}
	if rf := tree.RFDistance(got, d.Tree); rf > 4 {
		t.Errorf("NJ tree RF=%d from truth on clean simulated data", rf)
	}
}

func TestNJHandlesAwkwardNames(t *testing.T) {
	a := bio.NewAlignment(bio.NewDNAAlphabet())
	_ = a.AddString("taxon one", "ACGTACGTAC")
	_ = a.AddString("t(2)", "ACGAACGAAC")
	_ = a.AddString("plain", "TTGTACGTAC")
	_ = a.AddString("x:y", "ACGTACGTTT")
	p, _ := bio.Compress(a)
	tr, err := NJTree(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"taxon one", "t(2)", "plain", "x:y"} {
		if tr.TipByName(want) == nil {
			t.Errorf("taxon %q lost", want)
		}
	}
}
