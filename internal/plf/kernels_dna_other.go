//go:build !amd64

package plf

// Other GOARCHes have no assembly: dnaKernels runs its pure-Go bodies.

func cpuAVX2() bool { return false }

func newviewIIAVX2(xp, xl, xr, ptL, ptR []float64, cl, cr []int32, bmax []float64, lo, ncat int) {
	panic("plf: AVX2 newview on a build without assembly")
}

func newviewTIAVX2(xp, x, pt, ts []float64, tc, xc []int32, bmax []float64, lo, ncat, nm int) {
	panic("plf: AVX2 newview on a build without assembly")
}
