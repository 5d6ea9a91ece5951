package distance_test

import (
	"context"
	"fmt"

	"oocphylo/internal/bio"
	"oocphylo/internal/distance"
	"oocphylo/internal/tree"
)

func ExampleNeighborJoining() {
	// An exactly additive distance matrix: NJ recovers the tree exactly.
	m := &distance.Matrix{
		Names: []string{"a", "b", "c", "d"},
		D: []float64{
			0.0, 0.3, 0.6, 0.7,
			0.3, 0.0, 0.7, 0.8,
			0.6, 0.7, 0.0, 0.5,
			0.7, 0.8, 0.5, 0.0,
		},
	}
	t, err := distance.NeighborJoining(context.Background(), m)
	if err != nil {
		panic(err)
	}
	want, _ := tree.ParseNewick("((a:0.1,b:0.2):0.2,(c:0.2,d:0.3):0.1);")
	fmt.Println("taxa:", t.NumTips)
	fmt.Println("RF to the generating tree:", tree.RFDistance(t, want))
	fmt.Printf("total length: %.2f\n", t.TotalLength())
	// Output:
	// taxa: 4
	// RF to the generating tree: 0
	// total length: 1.10
}

func ExampleJC() {
	aln := bio.NewAlignment(bio.NewDNAAlphabet())
	_ = aln.AddString("s1", "AAAAAAAAAA")
	_ = aln.AddString("s2", "AAAAAAAAAC") // 10% observed divergence
	pats, _ := bio.Compress(aln)
	m, err := distance.JC(context.Background(), pats)
	if err != nil {
		panic(err)
	}
	fmt.Printf("JC-corrected distance: %.4f\n", m.At(0, 1))
	// Output:
	// JC-corrected distance: 0.1073
}
