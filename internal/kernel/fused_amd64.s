// AVX2 engine for the fused profile pass (see fused_amd64.go).

#include "textflag.h"

DATA fusedAbsMask<>+0(SB)/8, $0x7fffffffffffffff
GLOBL fusedAbsMask<>(SB), RODATA|NOPTR, $8

// STEP folds one element at off(SI)(DX*8) into the scalar chains,
// exactly as the portable loop does: the TwoSum step t = s+x with its
// residual added to c, then abs += |x|. The sum moves from register S
// to register T, so four steps per group return it to X0 with no moves.
#define STEP(off, S, T) \
	VMOVSD off(SI)(DX*8), X3 \
	VADDSD X3, S, T \
	VSUBSD S, T, X5 \
	VSUBSD X5, T, X6 \
	VSUBSD X6, S, X6 \
	VSUBSD X5, X3, X5 \
	VADDSD X5, X6, X6 \
	VADDSD X6, X1, X1 \
	VANDPD X14, X3, X3 \
	VADDSD X3, X2, X2

// func fusedGroupsAVX2(xs []float64, out *fusedLanes)
//
// Folds the len(xs)&^3 leading elements, four at a time. The scalar
// chains run in VEX-encoded scalar ops (X0/X4 alternate as s, X1 c,
// X2 abs, X3/X5/X6 temps); per group, the classification runs on ymm
// lanes: Y10 max |x| bits (VPCMPGTQ + VBLENDVPD: signed compares are
// exact below 2^63), Y11 min nonzero |x| bits (zero lanes blended to
// MaxInt64 first), Y12 zero count, Y13 negative nonzero count. Y14 is
// the |x| mask, Y15 zero, Y7-Y9 temps.
TEXT ·fusedGroupsAVX2(SB), NOSPLIT, $0-32
	MOVQ xs_base+0(FP), SI
	MOVQ xs_len+8(FP), CX
	MOVQ out+24(FP), DI
	ANDQ $-4, CX
	VPBROADCASTQ fusedAbsMask<>(SB), Y14
	VPXOR Y15, Y15, Y15
	VPXOR Y10, Y10, Y10
	VMOVDQU Y14, Y11
	VPXOR Y12, Y12, Y12
	VPXOR Y13, Y13, Y13
	VXORPD X0, X0, X0
	VXORPD X1, X1, X1
	VXORPD X2, X2, X2
	XORQ DX, DX
	TESTQ CX, CX
	JZ   done

loop:
	VMOVDQU (SI)(DX*8), Y8
	VPAND Y14, Y8, Y9          // |x| bits
	VPCMPGTQ Y10, Y9, Y7       // |x| > max
	VBLENDVPD Y7, Y9, Y10, Y10
	VPCMPEQQ Y15, Y9, Y7       // zero lanes
	VPSUBQ Y7, Y12, Y12
	VPCMPGTQ Y8, Y15, Y8       // sign bit set (includes -0)
	VPANDN Y8, Y7, Y8          // ... and nonzero
	VPSUBQ Y8, Y13, Y13
	VBLENDVPD Y7, Y14, Y9, Y9  // zero lanes -> MaxInt64
	VPCMPGTQ Y9, Y11, Y7       // min > |x|
	VBLENDVPD Y7, Y9, Y11, Y11
	STEP(0, X0, X4)
	STEP(8, X4, X0)
	STEP(16, X0, X4)
	STEP(24, X4, X0)
	ADDQ $4, DX
	CMPQ DX, CX
	JLT  loop

done:
	VMOVSD X0, 0(DI)
	VMOVSD X1, 8(DI)
	VMOVSD X2, 16(DI)
	VMOVDQU Y10, 24(DI)
	VMOVDQU Y11, 56(DI)
	VMOVDQU Y12, 88(DI)
	VMOVDQU Y13, 120(DI)
	VZEROUPPER
	RET
