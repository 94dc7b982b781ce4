// AVX2+FMA batch force kernels (DESIGN.md §12). Four float64 source lanes
// per YMM register, FMA accumulation, 1/sqrt as VSQRTPD+VDIVPD, and the
// r² == 0 guard as a VCMPPD mask so an unsoftened coincident source
// contributes exactly zero instead of Inf/NaN — the same semantics as the
// scalar reference loops in batch.go. The p-p kernel has a second inner loop
// that keeps 1/sqrt off the divider (float32 VRSQRTPS seed + two float64
// Newton steps), for calls whose r² is known to stay a normal float32.
//
// Lane layout: the outer loop walks targets one at a time; the target's
// coordinates are broadcast into 32-byte stack slots so the inner loop can
// use them as memory operands, keeping all 16 YMM registers for source
// lanes. The p-p inner loops are unrolled 2×4 wide (two independent
// rsqrt chains in flight); the p-c loop is 1×4 (its 11 live vector
// temporaries already fill the register file). The callers pass ns rounded
// down to a multiple of 4; the 1-3 remainder lanes run through the scalar
// reference in the Go wrapper (dispatch_amd64.go).

//go:build !noasm

#include "textflag.h"

// 256-bit broadcast constant pool.
DATA zero4<>+0(SB)/8, $0x0000000000000000
DATA zero4<>+8(SB)/8, $0x0000000000000000
DATA zero4<>+16(SB)/8, $0x0000000000000000
DATA zero4<>+24(SB)/8, $0x0000000000000000
GLOBL zero4<>(SB), RODATA|NOPTR, $32

DATA half4<>+0(SB)/8, $0x3FE0000000000000 // 0.5
DATA half4<>+8(SB)/8, $0x3FE0000000000000
DATA half4<>+16(SB)/8, $0x3FE0000000000000
DATA half4<>+24(SB)/8, $0x3FE0000000000000
GLOBL half4<>(SB), RODATA|NOPTR, $32

DATA threehalf4<>+0(SB)/8, $0x3FF8000000000000 // 1.5
DATA threehalf4<>+8(SB)/8, $0x3FF8000000000000
DATA threehalf4<>+16(SB)/8, $0x3FF8000000000000
DATA threehalf4<>+24(SB)/8, $0x3FF8000000000000
GLOBL threehalf4<>(SB), RODATA|NOPTR, $32

DATA three4<>+0(SB)/8, $0x4008000000000000 // 3.0
DATA three4<>+8(SB)/8, $0x4008000000000000
DATA three4<>+16(SB)/8, $0x4008000000000000
DATA three4<>+24(SB)/8, $0x4008000000000000
GLOBL three4<>(SB), RODATA|NOPTR, $32

DATA five4<>+0(SB)/8, $0x4014000000000000 // 5.0
DATA five4<>+8(SB)/8, $0x4014000000000000
DATA five4<>+16(SB)/8, $0x4014000000000000
DATA five4<>+24(SB)/8, $0x4014000000000000
GLOBL five4<>(SB), RODATA|NOPTR, $32

DATA negthree4<>+0(SB)/8, $0xC008000000000000 // -3.0
DATA negthree4<>+8(SB)/8, $0xC008000000000000
DATA negthree4<>+16(SB)/8, $0xC008000000000000
DATA negthree4<>+24(SB)/8, $0xC008000000000000
GLOBL negthree4<>(SB), RODATA|NOPTR, $32

DATA one8<>+0(SB)/8, $0x3FF0000000000000 // 1.0
GLOBL one8<>(SB), RODATA|NOPTR, $8

// HSUM_ADD adds the four lanes of accumulator y (low half x) into the
// float64 at (AX)(i*8); X4 and X5 are scratch.
#define HSUM_ADD(y, x, i) \
	VEXTRACTF128 $1, y, X4; \
	VADDPD  X4, x, X4; \
	VSHUFPD $1, X4, X4, X5; \
	VADDSD  X5, X4, X4; \
	VADDSD  (AX)(i*8), X4, X4; \
	VMOVSD  X4, (AX)(i*8)

// PPN_BLOCK is one 4-lane block of the p-p Newton loop, sources at byte
// offset o from index DX: dx/dy/dz in a/b/c, r2 then h = r2/2 in h, the
// reciprocal square root in r (low half rx), t scratch. eps2 starts the r2
// FMA chain; r2 ≥ eps2 > 0 on this path, so there is no zero guard. Seed
// error 1.5·2⁻¹² → 2.0e-7 → ≤ 6.1e-14 after two steps r ← r·(1.5 − h·r²).
#define PPN_BLOCK(o, a, b, c, h, r, rx, t) \
	VMOVUPD o(R8)(DX*8), a; \
	VSUBPD  xi-128(SP), a, a; \
	VMOVUPD o(R9)(DX*8), b; \
	VSUBPD  yi-96(SP), b, b; \
	VMOVUPD o(R10)(DX*8), c; \
	VSUBPD  zi-64(SP), c, c; \
	VMOVUPD eps-32(SP), h; \
	VFMADD231PD a, a, h; \
	VFMADD231PD b, b, h; \
	VFMADD231PD c, c, h; \
	VCVTPD2PSY h, rx; \
	VRSQRTPS   rx, rx; \
	VCVTPS2PD  rx, r; \
	VMULPD  half4<>(SB), h, h; \
	VMULPD  r, r, t; \
	VFNMADD213PD threehalf4<>(SB), h, t; \
	VMULPD  t, r, r; \
	VMULPD  r, r, t; \
	VFNMADD213PD threehalf4<>(SB), h, t; \
	VMULPD  t, r, r; \
	VMULPD  o(R11)(DX*8), r, h; \
	VSUBPD  h, Y3, Y3; \
	VMULPD  r, r, r; \
	VMULPD  h, r, r; \
	VFMADD231PD a, r, Y0; \
	VFMADD231PD b, r, Y1; \
	VFMADD231PD c, r, Y2

// func ppAVX2(tx, ty, tz *float64, nt int, sx, sy, sz, sm *float64, ns int,
//             eps2 float64, ax, ay, az, apot *float64, newton bool)
//
// ns must be a positive multiple of 4 (the wrapper rounds down and runs the
// remainder through the scalar path). Per 4-lane block:
//
//	dx = sx-xi  dy = sy-yi  dz = sz-zi
//	r2 = dx²+dy²+dz²+eps2         (FMA)
//	rinv = 1/sqrt(r2)             (VSQRTPD+VDIVPD), masked to 0 where r2==0
//	mr = m·rinv   mr3 = rinv²·mr
//	ax += dx·mr3  ay += dy·mr3  az += dz·mr3  pot -= mr
//
// With newton set, rinv comes from PPN_BLOCK instead; the caller guarantees
// 2⁻¹²⁰ ≤ r2 ≤ 2¹²⁰ for every pair (ppNewtonOK in dispatch_amd64.go).
TEXT ·ppAVX2(SB), NOSPLIT, $128-113
	MOVQ sx+32(FP), R8
	MOVQ sy+40(FP), R9
	MOVQ sz+48(FP), R10
	MOVQ sm+56(FP), R11
	MOVQ ns+64(FP), CX            // vector lane count (multiple of 4)
	MOVBLZX newton+112(FP), SI
	VBROADCASTSD eps2+72(FP), Y14
	VMOVUPD Y14, eps-32(SP)       // the Newton loop reuses Y14/Y15 as scratch
	VBROADCASTSD one8<>(SB), Y15
	MOVQ CX, BX
	ANDQ $-8, BX                  // limit of the 2×-unrolled loop
	XORQ DI, DI                   // target index i

pp_target:
	CMPQ DI, nt+24(FP)
	JGE  pp_done

	// Broadcast target coordinates to stack slots.
	MOVQ tx+0(FP), AX
	VBROADCASTSD (AX)(DI*8), Y0
	VMOVUPD Y0, xi-128(SP)
	MOVQ ty+8(FP), AX
	VBROADCASTSD (AX)(DI*8), Y0
	VMOVUPD Y0, yi-96(SP)
	MOVQ tz+16(FP), AX
	VBROADCASTSD (AX)(DI*8), Y0
	VMOVUPD Y0, zi-64(SP)

	VXORPD Y0, Y0, Y0             // Σ dx·mr3
	VXORPD Y1, Y1, Y1             // Σ dy·mr3
	VXORPD Y2, Y2, Y2             // Σ dz·mr3
	VXORPD Y3, Y3, Y3             // Σ -mr
	XORQ DX, DX                   // source index k
	TESTQ SI, SI
	JNE  ppn_pair

pp_pair:                              // 8 sources per iteration, 2 blocks
	CMPQ DX, BX
	JGE  pp_tail4

	// Block A: lanes k..k+3 in Y4-Y8.
	VMOVUPD (R8)(DX*8), Y4
	VSUBPD  xi-128(SP), Y4, Y4    // dx
	VMOVUPD (R9)(DX*8), Y5
	VSUBPD  yi-96(SP), Y5, Y5     // dy
	VMOVUPD (R10)(DX*8), Y6
	VSUBPD  zi-64(SP), Y6, Y6     // dz

	// Block B: lanes k+4..k+7 in Y9-Y13.
	VMOVUPD 32(R8)(DX*8), Y9
	VSUBPD  xi-128(SP), Y9, Y9
	VMOVUPD 32(R9)(DX*8), Y10
	VSUBPD  yi-96(SP), Y10, Y10
	VMOVUPD 32(R10)(DX*8), Y11
	VSUBPD  zi-64(SP), Y11, Y11

	VMULPD      Y4, Y4, Y7
	VFMADD231PD Y5, Y5, Y7
	VFMADD231PD Y6, Y6, Y7
	VADDPD      Y14, Y7, Y7       // r2 A
	VMULPD      Y9, Y9, Y12
	VFMADD231PD Y10, Y10, Y12
	VFMADD231PD Y11, Y11, Y12
	VADDPD      Y14, Y12, Y12     // r2 B

	VSQRTPD Y7, Y8
	VSQRTPD Y12, Y13
	VDIVPD  Y8, Y15, Y8           // rinv A = 1/sqrt(r2)
	VDIVPD  Y13, Y15, Y13         // rinv B
	VCMPPD  $4, zero4<>(SB), Y7, Y7   // NEQ_UQ: r2 != 0
	VCMPPD  $4, zero4<>(SB), Y12, Y12
	VANDPD  Y7, Y8, Y8            // guarded rinv A
	VANDPD  Y12, Y13, Y13         // guarded rinv B

	VMULPD (R11)(DX*8), Y8, Y7    // mr A = m·rinv
	VMULPD 32(R11)(DX*8), Y13, Y12
	VSUBPD Y7, Y3, Y3             // pot -= mr A
	VSUBPD Y12, Y3, Y3            // pot -= mr B
	VMULPD Y8, Y8, Y8             // rinv² A
	VMULPD Y13, Y13, Y13
	VMULPD Y7, Y8, Y8             // mr3 A = rinv²·mr
	VMULPD Y12, Y13, Y13

	VFMADD231PD Y4, Y8, Y0
	VFMADD231PD Y5, Y8, Y1
	VFMADD231PD Y6, Y8, Y2
	VFMADD231PD Y9, Y13, Y0
	VFMADD231PD Y10, Y13, Y1
	VFMADD231PD Y11, Y13, Y2

	ADDQ $8, DX
	JMP  pp_pair

pp_tail4:                             // last multiple-of-4 block, if any
	CMPQ DX, CX
	JGE  pp_reduce

	VMOVUPD (R8)(DX*8), Y4
	VSUBPD  xi-128(SP), Y4, Y4
	VMOVUPD (R9)(DX*8), Y5
	VSUBPD  yi-96(SP), Y5, Y5
	VMOVUPD (R10)(DX*8), Y6
	VSUBPD  zi-64(SP), Y6, Y6
	VMULPD      Y4, Y4, Y7
	VFMADD231PD Y5, Y5, Y7
	VFMADD231PD Y6, Y6, Y7
	VADDPD      Y14, Y7, Y7
	VSQRTPD Y7, Y8
	VDIVPD  Y8, Y15, Y8
	VCMPPD  $4, zero4<>(SB), Y7, Y7
	VANDPD  Y7, Y8, Y8
	VMULPD  (R11)(DX*8), Y8, Y7
	VSUBPD  Y7, Y3, Y3
	VMULPD  Y8, Y8, Y8
	VMULPD  Y7, Y8, Y8
	VFMADD231PD Y4, Y8, Y0
	VFMADD231PD Y5, Y8, Y1
	VFMADD231PD Y6, Y8, Y2

	ADDQ $4, DX
	JMP  pp_tail4

ppn_pair:                             // Newton loop, same 2×4 shape
	CMPQ DX, BX
	JGE  ppn_tail4
	PPN_BLOCK(0, Y4, Y5, Y6, Y7, Y8, X8, Y14)
	PPN_BLOCK(32, Y9, Y10, Y11, Y12, Y13, X13, Y15)
	ADDQ $8, DX
	JMP  ppn_pair

ppn_tail4:
	CMPQ DX, CX
	JGE  pp_reduce
	PPN_BLOCK(0, Y4, Y5, Y6, Y7, Y8, X8, Y14)
	ADDQ $4, DX

pp_reduce:                            // horizontal sums into the accumulators
	MOVQ ax+80(FP), AX
	HSUM_ADD(Y0, X0, DI)
	MOVQ ay+88(FP), AX
	HSUM_ADD(Y1, X1, DI)
	MOVQ az+96(FP), AX
	HSUM_ADD(Y2, X2, DI)
	MOVQ apot+104(FP), AX
	HSUM_ADD(Y3, X3, DI)

	INCQ DI
	JMP  pp_target

pp_done:
	VZEROUPPER
	RET

// func pcAVX2(tx, ty, tz *float64, nt int,
//             cx, cy, cz, cm, qxx, qyy, qzz, qxy, qxz, qyz *float64, ns int,
//             eps2 float64, ax, ay, az, apot *float64)
//
// Particle-cell kernel with quadrupole corrections (paper eqs. 1-2), same
// term grouping as the scalar loop up to FMA contraction:
//
//	pot += -m·rinv + (trQ/2)·rinv³ - (1.5·rqr)·rinv⁵
//	s    = m·rinv³ - 3(trQ/2)·rinv⁵ + 5(1.5·rqr)·rinv⁷
//	a   += dr·s - 3·rinv⁵·(Q·dr)
TEXT ·pcAVX2(SB), NOSPLIT, $128-160
	MOVQ cx+32(FP), R8
	MOVQ cy+40(FP), R9
	MOVQ cz+48(FP), R10
	MOVQ cm+56(FP), R11
	MOVQ qxx+64(FP), R12
	MOVQ qyy+72(FP), R13
	MOVQ qzz+80(FP), R14
	MOVQ qxy+88(FP), R15
	MOVQ qxz+96(FP), SI
	MOVQ qyz+104(FP), DI
	MOVQ ns+112(FP), CX           // vector lane count (multiple of 4)
	VBROADCASTSD eps2+120(FP), Y4
	VMOVUPD Y4, eps-32(SP)
	VBROADCASTSD one8<>(SB), Y15
	XORQ BX, BX                   // target index i

pc_target:
	CMPQ BX, nt+24(FP)
	JGE  pc_done

	MOVQ tx+0(FP), AX
	VBROADCASTSD (AX)(BX*8), Y0
	VMOVUPD Y0, xi-128(SP)
	MOVQ ty+8(FP), AX
	VBROADCASTSD (AX)(BX*8), Y0
	VMOVUPD Y0, yi-96(SP)
	MOVQ tz+16(FP), AX
	VBROADCASTSD (AX)(BX*8), Y0
	VMOVUPD Y0, zi-64(SP)

	VXORPD Y0, Y0, Y0             // Σ ax
	VXORPD Y1, Y1, Y1             // Σ ay
	VXORPD Y2, Y2, Y2             // Σ az
	VXORPD Y3, Y3, Y3             // Σ pot
	XORQ DX, DX                   // source index k

pc_src:
	CMPQ DX, CX
	JGE  pc_reduce

	VMOVUPD (R8)(DX*8), Y4
	VSUBPD  xi-128(SP), Y4, Y4    // dx
	VMOVUPD (R9)(DX*8), Y5
	VSUBPD  yi-96(SP), Y5, Y5     // dy
	VMOVUPD (R10)(DX*8), Y6
	VSUBPD  zi-64(SP), Y6, Y6     // dz

	VMULPD      Y4, Y4, Y7
	VFMADD231PD Y5, Y5, Y7
	VFMADD231PD Y6, Y6, Y7
	VADDPD      eps-32(SP), Y7, Y7 // r2
	VSQRTPD Y7, Y8
	VDIVPD  Y8, Y15, Y8           // rinv = 1/sqrt(r2)
	VCMPPD  $4, zero4<>(SB), Y7, Y7
	VANDPD  Y7, Y8, Y8            // guarded rinv

	VMULPD (R11)(DX*8), Y8, Y7    // m·rinv
	VSUBPD Y7, Y3, Y3             // pot -= m·rinv
	VMULPD Y8, Y8, Y7             // rinv²
	VMULPD Y7, Y8, Y9             // rinv³
	VMULPD Y7, Y9, Y10            // rinv⁵
	VMULPD Y7, Y10, Y8            // rinv⁷

	VMULPD      (R12)(DX*8), Y4, Y11 // qxx·dx
	VFMADD231PD (R15)(DX*8), Y5, Y11 // + qxy·dy
	VFMADD231PD (SI)(DX*8), Y6, Y11  // + qxz·dz  → qrx
	VMULPD      (R15)(DX*8), Y4, Y12 // qxy·dx
	VFMADD231PD (R13)(DX*8), Y5, Y12 // + qyy·dy
	VFMADD231PD (DI)(DX*8), Y6, Y12  // + qyz·dz  → qry
	VMULPD      (SI)(DX*8), Y4, Y13  // qxz·dx
	VFMADD231PD (DI)(DX*8), Y5, Y13  // + qyz·dy
	VFMADD231PD (R14)(DX*8), Y6, Y13 // + qzz·dz  → qrz

	VMULPD      Y11, Y4, Y14
	VFMADD231PD Y12, Y5, Y14
	VFMADD231PD Y13, Y6, Y14      // rqr = dr·(Q·dr)

	VMOVUPD (R12)(DX*8), Y7
	VADDPD  (R13)(DX*8), Y7, Y7
	VADDPD  (R14)(DX*8), Y7, Y7   // trQ
	VMULPD  half4<>(SB), Y7, Y7   // T = trQ/2

	VFMADD231PD  Y9, Y7, Y3       // pot += T·rinv³
	VMULPD       threehalf4<>(SB), Y14, Y14 // R = 1.5·rqr
	VFNMADD231PD Y10, Y14, Y3     // pot -= R·rinv⁵

	VMULPD       (R11)(DX*8), Y9, Y9 // s = m·rinv³
	VMULPD       three4<>(SB), Y7, Y7
	VFNMADD231PD Y10, Y7, Y9      // s -= 3T·rinv⁵
	VMULPD       five4<>(SB), Y14, Y14
	VFMADD231PD  Y8, Y14, Y9      // s += 5R·rinv⁷

	VMULPD negthree4<>(SB), Y10, Y10 // q5 = -3·rinv⁵

	VFMADD231PD Y9, Y4, Y0        // ax += dx·s
	VFMADD231PD Y10, Y11, Y0      // ax += qrx·q5
	VFMADD231PD Y9, Y5, Y1
	VFMADD231PD Y10, Y12, Y1
	VFMADD231PD Y9, Y6, Y2
	VFMADD231PD Y10, Y13, Y2

	ADDQ $4, DX
	JMP  pc_src

pc_reduce:
	MOVQ ax+128(FP), AX
	HSUM_ADD(Y0, X0, BX)
	MOVQ ay+136(FP), AX
	HSUM_ADD(Y1, X1, BX)
	MOVQ az+144(FP), AX
	HSUM_ADD(Y2, X2, BX)
	MOVQ apot+152(FP), AX
	HSUM_ADD(Y3, X3, BX)

	INCQ BX
	JMP  pc_target

pc_done:
	VZEROUPPER
	RET

// func maxAbs3AVX2(x, y, z *float64, n int) float64
//
// Largest |v| over the first n (a positive multiple of 4) elements of three
// arrays. The running maximum is VMAXPD's second source, which the
// instruction returns whenever either operand is NaN: a NaN element is
// skipped and can never replace an Inf already seen.
TEXT ·maxAbs3AVX2(SB), NOSPLIT, $0-40
	MOVQ x+0(FP), R8
	MOVQ y+8(FP), R9
	MOVQ z+16(FP), R10
	MOVQ n+24(FP), CX
	VPCMPEQD Y1, Y1, Y1
	VPSRLQ   $1, Y1, Y1           // 0x7FFF…: sign-clearing mask
	VXORPD Y0, Y0, Y0
	XORQ DX, DX
maxabs_loop:
	VANDPD (R8)(DX*8), Y1, Y2
	VMAXPD Y0, Y2, Y0
	VANDPD (R9)(DX*8), Y1, Y2
	VMAXPD Y0, Y2, Y0
	VANDPD (R10)(DX*8), Y1, Y2
	VMAXPD Y0, Y2, Y0
	ADDQ $4, DX
	CMPQ DX, CX
	JLT  maxabs_loop
	VEXTRACTF128 $1, Y0, X1
	VMAXPD  X1, X0, X0
	VSHUFPD $1, X0, X0, X1
	VMAXSD  X1, X0, X0
	VMOVSD  X0, ret+32(FP)
	VZEROUPPER
	RET
