#include "textflag.h"

// AVX2 bodies of dna4's inner×inner and tip×inner newviews. One YMM
// register holds the four parent states of one category block: lane s
// of a transition product is row s of P applied to the child's entries,
// formed from the transposed P (column j across the four rows) times
// the broadcast child entry x_j, and summed in the scalar order
// ((p0·x0 + p1·x1) + p2·x2) + p3·x3 with VMULPD then VADDPD — never a
// fused multiply-add, whose single rounding would move bits. The block
// maximum is VMAXPD with the running maximum as its second source, so
// a NaN entry leaves it unchanged as the scalar v > blockMax does.
// Each call computes len(bmax) patterns from pattern lo and writes
// their block maxima to bmax; the Go caller applies scaleTail.

// func cpuAVX2() bool
TEXT ·cpuAVX2(SB), NOSPLIT, $0-1
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (bit 27) and AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  no
	MOVL $0, CX
	XGETBV
	ANDL $6, AX          // the OS saves XMM (bit 1) and YMM (bit 2) state
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	BTL  $5, BX          // AVX2
	JCC  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func newviewIIAVX2(xp, xl, xr, ptL, ptR []float64, cl, cr []int32, bmax []float64, lo, ncat int)
TEXT ·newviewIIAVX2(SB), NOSPLIT, $0-208
	MOVQ xp_base+0(FP), DI
	MOVQ xl_base+24(FP), SI
	MOVQ xr_base+48(FP), DX
	MOVQ ptL_base+72(FP), R8
	MOVQ ptR_base+96(FP), R9
	MOVQ cl_base+120(FP), R10
	MOVQ cr_base+144(FP), R11
	MOVQ bmax_base+168(FP), R12
	MOVQ bmax_len+176(FP), R13
	MOVQ lo+192(FP), AX
	MOVQ ncat+200(FP), R14
	SHLQ $4, R14              // CX steps 16 per category up to R14 = 16·ncat
	MOVQ R14, R15
	SHLQ $1, R15              // R15 = 32·ncat: bytes per pattern block
	LEAQ (R10)(AX*4), R10
	LEAQ (R11)(AX*4), R11
	IMULQ R15, AX
	ADDQ AX, DI
	TESTQ R13, R13
	JEQ  iidone

iipat:
	MOVLQSX (R10), AX
	IMULQ R15, AX
	ADDQ SI, AX               // left child's block
	MOVLQSX (R11), BX
	IMULQ R15, BX
	ADDQ DX, BX               // right child's block
	VXORPD Y4, Y4, Y4         // block maximum
	XORQ CX, CX

iicat:
	// Category c = CX/16: its P columns at 128·c bytes, its block at 32·c.
	VBROADCASTSD 0(AX)(CX*2), Y0
	VMULPD       0(R8)(CX*8), Y0, Y0
	VBROADCASTSD 8(AX)(CX*2), Y1
	VMULPD       32(R8)(CX*8), Y1, Y1
	VADDPD       Y1, Y0, Y0
	VBROADCASTSD 16(AX)(CX*2), Y1
	VMULPD       64(R8)(CX*8), Y1, Y1
	VADDPD       Y1, Y0, Y0
	VBROADCASTSD 24(AX)(CX*2), Y1
	VMULPD       96(R8)(CX*8), Y1, Y1
	VADDPD       Y1, Y0, Y0
	VBROADCASTSD 0(BX)(CX*2), Y2
	VMULPD       0(R9)(CX*8), Y2, Y2
	VBROADCASTSD 8(BX)(CX*2), Y3
	VMULPD       32(R9)(CX*8), Y3, Y3
	VADDPD       Y3, Y2, Y2
	VBROADCASTSD 16(BX)(CX*2), Y3
	VMULPD       64(R9)(CX*8), Y3, Y3
	VADDPD       Y3, Y2, Y2
	VBROADCASTSD 24(BX)(CX*2), Y3
	VMULPD       96(R9)(CX*8), Y3, Y3
	VADDPD       Y3, Y2, Y2
	VMULPD       Y2, Y0, Y0
	VMOVUPD      Y0, 0(DI)(CX*2)
	VMAXPD       Y4, Y0, Y4
	ADDQ         $16, CX
	CMPQ         CX, R14
	JLT          iicat

	VEXTRACTF128 $1, Y4, X5
	VMAXPD       X5, X4, X4
	VPERMILPD    $1, X4, X5
	VMAXPD       X5, X4, X4
	VMOVSD       X4, (R12)
	ADDQ         $4, R10
	ADDQ         $4, R11
	ADDQ         $8, R12
	ADDQ         R15, DI
	DECQ         R13
	JNE          iipat

iidone:
	VZEROUPPER
	RET

// func newviewTIAVX2(xp, x, pt, ts []float64, tc, xc []int32, bmax []float64, lo, ncat, nm int)
TEXT ·newviewTIAVX2(SB), NOSPLIT, $0-192
	MOVQ xp_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ pt_base+48(FP), R8
	MOVQ ts_base+72(FP), DX
	MOVQ tc_base+96(FP), R10
	MOVQ xc_base+120(FP), R11
	MOVQ bmax_base+144(FP), R12
	MOVQ bmax_len+152(FP), R13
	MOVQ lo+168(FP), AX
	MOVQ ncat+176(FP), R14
	MOVQ nm+184(FP), R9
	SHLQ $5, R9               // R9 = 32·nm: bytes per category of the tip-sum table
	SHLQ $4, R14
	MOVQ R14, R15
	SHLQ $1, R15
	LEAQ (R10)(AX*4), R10
	LEAQ (R11)(AX*4), R11
	IMULQ R15, AX
	ADDQ AX, DI
	TESTQ R13, R13
	JEQ  tidone

tipat:
	MOVLQSX (R11), AX
	IMULQ R15, AX
	ADDQ SI, AX               // inner child's block
	MOVLQSX (R10), BX
	SHLQ $5, BX
	ADDQ DX, BX               // the tip's mask row, category 0
	VXORPD Y4, Y4, Y4
	XORQ CX, CX

ticat:
	VBROADCASTSD 0(AX)(CX*2), Y0
	VMULPD       0(R8)(CX*8), Y0, Y0
	VBROADCASTSD 8(AX)(CX*2), Y1
	VMULPD       32(R8)(CX*8), Y1, Y1
	VADDPD       Y1, Y0, Y0
	VBROADCASTSD 16(AX)(CX*2), Y1
	VMULPD       64(R8)(CX*8), Y1, Y1
	VADDPD       Y1, Y0, Y0
	VBROADCASTSD 24(AX)(CX*2), Y1
	VMULPD       96(R8)(CX*8), Y1, Y1
	VADDPD       Y1, Y0, Y0
	VMULPD       (BX), Y0, Y0
	VMOVUPD      Y0, 0(DI)(CX*2)
	VMAXPD       Y4, Y0, Y4
	ADDQ         R9, BX
	ADDQ         $16, CX
	CMPQ         CX, R14
	JLT          ticat

	VEXTRACTF128 $1, Y4, X5
	VMAXPD       X5, X4, X4
	VPERMILPD    $1, X4, X5
	VMAXPD       X5, X4, X4
	VMOVSD       X4, (R12)
	ADDQ         $4, R10
	ADDQ         $4, R11
	ADDQ         $8, R12
	ADDQ         R15, DI
	DECQ         R13
	JNE          tipat

tidone:
	VZEROUPPER
	RET
