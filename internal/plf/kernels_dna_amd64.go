package plf

// The assembly entry points of kernels_dna_amd64.s. The Go wrappers in
// kernels_dna.go bound every index the assembly follows before calling.

// cpuAVX2 reports whether the CPU has AVX2 and the OS saves YMM state.
func cpuAVX2() bool

//go:noescape
func newviewIIAVX2(xp, xl, xr, ptL, ptR []float64, cl, cr []int32, bmax []float64, lo, ncat int)

//go:noescape
func newviewTIAVX2(xp, x, pt, ts []float64, tc, xc []int32, bmax []float64, lo, ncat, nm int)
