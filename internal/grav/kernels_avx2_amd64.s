// Float32 batch force kernels (DESIGN.md §12) in two widths: eight source
// lanes per YMM register on AVX2+FMA, sixteen per ZMM register on AVX-512F.
// The Go wrapper (dispatch_amd64.go) narrows one tile of sources to float32 —
// coordinates relative to the call's origin, everything normalised by exact
// powers of two — into planes of planeLanes lanes, padded with zero-mass
// lanes to a multiple of the width, so the kernels have no remainder path.
// Each kernel narrows its targets the same way, keeps one float32 partial sum
// per lane and accumulator, and at the end of the tile finishes the sums in
// float64, undoes the normalisation and adds the result into the caller's
// float64 arrays. The loop bodies are one macro per kernel, instantiated once
// per width over its registers and its reciprocal square root.
//
// 1/√r² is VRSQRTPS (12-bit seed) or VRSQRT14PS (14-bit) plus one Newton step
// that leaves out the factor ½: z = y·(3 − r²·y²) = 2/√r². The wrapper halves
// the masses (and divides the quadrupoles by 16) and folds the remaining
// powers of two into the scale of the sums. ε² starts the r² chain and the
// wrapper guarantees ε² ≥ 2⁻³² in normalised units, so r² is never zero and
// no power of z overflows.

//go:build !noasm

#include "textflag.h"

// Byte offsets into the wrapper's frame struct and between scratch planes.
#define F_LSCALE 24
#define F_SCALE  32
#define F_EPS2   64
#define PLANE    2048

DATA kconst<>+0(SB)/4, $0x40400000  // 3
DATA kconst<>+4(SB)/4, $0x3F400000  // 0.75
DATA kconst<>+8(SB)/4, $0x40A00000  // 5
DATA kconst<>+12(SB)/4, $0xC0C00000 // -6
GLOBL kconst<>(SB), RODATA|NOPTR, $16

// FTZ_ON sets flush-to-zero and denormals-are-zero for the duration of a
// kernel, as the GPU kernels run, and FTZ_OFF restores the caller's MXCSR.
// The moments of a one-particle cell are rounding residue that lands in the
// float32 denormal range, where every instruction touching one takes a
// microcode assist (the p-c kernel ran 3× slower on the Milky Way model); in
// normalised units a flushed value is below 2⁻¹²⁶ of the largest source.
#define FTZ_ON \
	VSTMXCSR mxcsr-4(SP); \
	MOVL mxcsr-4(SP), AX; \
	ORL  $0x8040, AX; \
	MOVL AX, ftz-8(SP); \
	VLDMXCSR ftz-8(SP)
#define FTZ_OFF \
	VLDMXCSR mxcsr-4(SP)

// TARGET narrows coordinate DI of the array at ptr exactly as the wrapper
// narrows sources — float32((t − origin)·lscale), origin at byte offset o of
// the frame in SI — and broadcasts it to every lane of v.
#define TARGET(ptr, o, v) \
	MOVQ ptr, AX; \
	VMOVSD (AX)(DI*8), X0; \
	VSUBSD o(SI), X0, X0; \
	VMULSD F_LSCALE(SI), X0, X0; \
	VCVTSD2SS X0, X0, X0; \
	VBROADCASTSS X0, v

// TARGET8 is TARGET for the eight-lane kernels, which have no register left
// for the target and keep it in a stack slot.
#define TARGET8(ptr, o, slot) \
	TARGET(ptr, o, Y0); \
	VMOVUPS Y0, slot

// FOLD16 adds the upper eight lanes of each of Z0..Z3 onto the lower eight,
// so that REDUCE finishes sixteen-lane sums as it does eight-lane ones.
#define FOLD16 \
	VEXTRACTF64X4 $1, Z0, Y4; \
	VADDPS Y4, Y0, Y0; \
	VEXTRACTF64X4 $1, Z1, Y4; \
	VADDPS Y4, Y1, Y1; \
	VEXTRACTF64X4 $1, Z2, Y4; \
	VADDPS Y4, Y2, Y2; \
	VEXTRACTF64X4 $1, Z3, Y4; \
	VADDPS Y4, Y3, Y3

// REDUCE folds the eight float32 partial sums of each of Y0..Y3 to two, widens
// them, finishes the sums in float64, multiplies by the frame's four scales
// and adds the results into ax, ay, az and apot at index DI.
#define REDUCE \
	VHADDPS Y1, Y0, Y0; \
	VHADDPS Y3, Y2, Y2; \
	VHADDPS Y2, Y0, Y0; \
	VEXTRACTF128 $1, Y0, X1; \
	VCVTPS2PD X0, Y0; \
	VCVTPS2PD X1, Y1; \
	VADDPD  Y1, Y0, Y0; \
	VMULPD  F_SCALE(SI), Y0, Y0; \
	VSHUFPD $1, X0, X0, X1; \
	MOVQ ax+56(FP), AX; \
	VADDSD (AX)(DI*8), X0, X2; \
	VMOVSD X2, (AX)(DI*8); \
	MOVQ ay+64(FP), AX; \
	VADDSD (AX)(DI*8), X1, X2; \
	VMOVSD X2, (AX)(DI*8); \
	VEXTRACTF128 $1, Y0, X0; \
	VSHUFPD $1, X0, X0, X1; \
	MOVQ az+72(FP), AX; \
	VADDSD (AX)(DI*8), X0, X2; \
	VMOVSD X2, (AX)(DI*8); \
	MOVQ apot+80(FP), AX; \
	VADDSD (AX)(DI*8), X1, X2; \
	VMOVSD X2, (AX)(DI*8)

// RSQRT2 turns r² in r into z = 2/√r² in z with the seed instruction rsqrt
// and one Newton step: y = rsqrt(r²), z = y·(3 − r²·y·y). three is 3.0 in
// all lanes. From a seed of relative error e the step errs short by 1.5·e²:
// 3.4u from VRSQRTPS (e ≤ 1.5·2⁻¹²), 0.1u from VRSQRT14PS (e < 2⁻¹⁴), u =
// 2⁻²⁴; its three roundings add at most 2.5u either way.
#define RSQRT2(rsqrt, r, z, three) \
	rsqrt   r, z; \
	VMULPS  z, r, r; \
	VFNMADD213PS three, z, r; \
	VMULPS  r, z, z

// PP_BLOCK is one block of the p-p loop at byte offset o from lane DX, with
// the target's coordinates in xi, yi, zi, ε² and 3 in all lanes of eps2 and
// three, temporaries a, b, c, r, z and accumulators ax, ay, az, pot:
//
//	dr = s − t               r² = ε² + dx² + dy² + dz²   z = 2/√r²
//	mz = m'·z   pot −= mz    a += dr·(mz·z²)
#define PP_BLOCK(rsqrt, o, a, b, c, r, z, xi, yi, zi, eps2, three, ax, ay, az, pot) \
	VMOVUPS o(R8)(DX*4), a; \
	VSUBPS  xi, a, a; \
	VMOVUPS PLANE+o(R8)(DX*4), b; \
	VSUBPS  yi, b, b; \
	VMOVUPS 2*PLANE+o(R8)(DX*4), c; \
	VSUBPS  zi, c, c; \
	VMOVAPS eps2, r; \
	VFMADD231PS a, a, r; \
	VFMADD231PS b, b, r; \
	VFMADD231PS c, c, r; \
	RSQRT2(rsqrt, r, z, three); \
	VMULPS  3*PLANE+o(R8)(DX*4), z, r; \
	VSUBPS  r, pot, pot; \
	VMULPS  z, z, z; \
	VMULPS  r, z, z; \
	VFMADD231PS a, z, ax; \
	VFMADD231PS b, z, ay; \
	VFMADD231PS c, z, az

// PC_BLOCK is one block of the p-c loop at lane DX (see pcAVX2), with the
// target in xi, yi, zi, the constants ¾, 5, −6 and 3 in c075, five, negsix
// and three, accumulators ax, ay, az, pot and temporaries dx … t.
#define PC_BLOCK(rsqrt, xi, yi, zi, c075, five, negsix, three, ax, ay, az, pot, dx, dy, dz, r, z, z3, z5, qx, qy, qz, t) \
	VMOVUPS (R8)(DX*4), dx; \
	VSUBPS  xi, dx, dx; \
	VMOVUPS PLANE(R8)(DX*4), dy; \
	VSUBPS  yi, dy, dy; \
	VMOVUPS 2*PLANE(R8)(DX*4), dz; \
	VSUBPS  zi, dz, dz; \
	VBROADCASTSS F_EPS2(SI), r; \
	VFMADD231PS dx, dx, r; \
	VFMADD231PS dy, dy, r; \
	VFMADD231PS dz, dz, r; \
	RSQRT2(rsqrt, r, z, three); \
	VFNMADD231PS 3*PLANE(R8)(DX*4), z, pot; \
	VMULPS z, z, r; \
	VMULPS r, z, z3; \
	VMULPS r, z3, z5; \
	VMULPS      4*PLANE(R8)(DX*4), dx, qx; \
	VFMADD231PS 7*PLANE(R8)(DX*4), dy, qx; \
	VFMADD231PS 8*PLANE(R8)(DX*4), dz, qx; \
	VMULPS      7*PLANE(R8)(DX*4), dx, qy; \
	VFMADD231PS 5*PLANE(R8)(DX*4), dy, qy; \
	VFMADD231PS 9*PLANE(R8)(DX*4), dz, qy; \
	VMULPS      8*PLANE(R8)(DX*4), dx, qz; \
	VFMADD231PS 9*PLANE(R8)(DX*4), dy, qz; \
	VFMADD231PS 6*PLANE(R8)(DX*4), dz, qz; \
	VMULPS      qx, dx, t; \
	VFMADD231PS qy, dy, t; \
	VFMADD231PS qz, dz, t; \
	VMOVUPS 4*PLANE(R8)(DX*4), z; \
	VADDPS  5*PLANE(R8)(DX*4), z, z; \
	VADDPS  6*PLANE(R8)(DX*4), z, z; \
	VMULPS  z3, z, z; \
	VMULPS  c075, t, t; \
	VMULPS  z5, t, t; \
	VADDPS  z, pot, pot; \
	VSUBPS  t, pot, pot; \
	VMULPS       five, t, t; \
	VFNMADD231PS three, z, t; \
	VMULPS       3*PLANE(R8)(DX*4), z3, z3; \
	VFMADD231PS  r, t, z3; \
	VMULPS       negsix, z5, z5; \
	VFMADD231PS z3, dx, ax; \
	VFMADD231PS z5, qx, ax; \
	VFMADD231PS z3, dy, ay; \
	VFMADD231PS z5, qy, ay; \
	VFMADD231PS z3, dz, az; \
	VFMADD231PS z5, qz, az

// func ppAVX2(tx, ty, tz *float64, nt int, f *frame, src *float32, ns int,
//             ax, ay, az, apot *float64)
//
// src holds the planes x, y, z, m'; ns is a positive multiple of 8.
TEXT ·ppAVX2(SB), NOSPLIT, $104-88
	FTZ_ON
	MOVQ f+32(FP), SI
	MOVQ src+40(FP), R8
	MOVQ ns+48(FP), CX
	MOVQ CX, BX
	ANDQ $-16, BX                 // limit of the 2×-unrolled loop
	VBROADCASTSS kconst<>+0(SB), Y14
	VBROADCASTSS F_EPS2(SI), Y15
	XORQ DI, DI                   // target index

pp_target:
	CMPQ DI, nt+24(FP)
	JGE  pp_done
	TARGET8(tx+0(FP), 0, xi-104(SP))
	TARGET8(ty+8(FP), 8, yi-72(SP))
	TARGET8(tz+16(FP), 16, zi-40(SP))
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ DX, DX                   // source lane

pp_pair:                              // two independent rsqrt chains in flight
	CMPQ DX, BX
	JGE  pp_tail
	PP_BLOCK(VRSQRTPS, 0, Y4, Y5, Y6, Y7, Y8, xi-104(SP), yi-72(SP), zi-40(SP), Y15, Y14, Y0, Y1, Y2, Y3)
	PP_BLOCK(VRSQRTPS, 32, Y9, Y10, Y11, Y12, Y13, xi-104(SP), yi-72(SP), zi-40(SP), Y15, Y14, Y0, Y1, Y2, Y3)
	ADDQ $16, DX
	JMP  pp_pair

pp_tail:
	CMPQ DX, CX
	JGE  pp_reduce
	PP_BLOCK(VRSQRTPS, 0, Y4, Y5, Y6, Y7, Y8, xi-104(SP), yi-72(SP), zi-40(SP), Y15, Y14, Y0, Y1, Y2, Y3)

pp_reduce:
	REDUCE
	INCQ DI
	JMP  pp_target

pp_done:
	FTZ_OFF
	VZEROUPPER
	RET

// func ppAVX512(tx, ty, tz *float64, nt int, f *frame, src *float32, ns int,
//               ax, ay, az, apot *float64)
//
// ppAVX2 sixteen lanes wide; ns is a positive multiple of 16. The target is
// broadcast into Z16..Z18, which are cleared before returning: VZEROUPPER
// does not reach ZMM16–31.
TEXT ·ppAVX512(SB), NOSPLIT, $8-88
	FTZ_ON
	MOVQ f+32(FP), SI
	MOVQ src+40(FP), R8
	MOVQ ns+48(FP), CX
	MOVQ CX, BX
	ANDQ $-32, BX                 // limit of the 2×-unrolled loop
	VBROADCASTSS kconst<>+0(SB), Z14
	VBROADCASTSS F_EPS2(SI), Z15
	XORQ DI, DI                   // target index

pp_target:
	CMPQ DI, nt+24(FP)
	JGE  pp_done
	TARGET(tx+0(FP), 0, Z16)
	TARGET(ty+8(FP), 8, Z17)
	TARGET(tz+16(FP), 16, Z18)
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	XORQ DX, DX                   // source lane

pp_pair:
	CMPQ DX, BX
	JGE  pp_tail
	PP_BLOCK(VRSQRT14PS, 0, Z4, Z5, Z6, Z7, Z8, Z16, Z17, Z18, Z15, Z14, Z0, Z1, Z2, Z3)
	PP_BLOCK(VRSQRT14PS, 64, Z9, Z10, Z11, Z12, Z13, Z16, Z17, Z18, Z15, Z14, Z0, Z1, Z2, Z3)
	ADDQ $32, DX
	JMP  pp_pair

pp_tail:
	CMPQ DX, CX
	JGE  pp_reduce
	PP_BLOCK(VRSQRT14PS, 0, Z4, Z5, Z6, Z7, Z8, Z16, Z17, Z18, Z15, Z14, Z0, Z1, Z2, Z3)

pp_reduce:
	FOLD16
	REDUCE
	INCQ DI
	JMP  pp_target

pp_done:
	FTZ_OFF
	VPXORD Z16, Z16, Z16
	VPXORD Z17, Z17, Z17
	VPXORD Z18, Z18, Z18
	VZEROUPPER
	RET

// func pcAVX2(tx, ty, tz *float64, nt int, f *frame, src *float32, ns int,
//             ax, ay, az, apot *float64)
//
// Particle-cell kernel with quadrupole corrections (paper eqs. 1-2). src
// holds the planes x, y, z, m', then Q' = Q/16 as xx, yy, zz, xy, xz, yz.
// With z = 2/√r² the scalar loop's terms become
//
//	p1 = trQ'·z³   p2 = ¾·(dr·Q'·dr)·z⁵
//	pot += −m'·z + p1 − p2
//	s    = m'·z³ − z²·(3·p1 − 5·p2)
//	a   += dr·s − 6·z⁵·(Q'·dr)          (¼ of it folded into the frame)
//
// in which no power above z⁵ stands alone.
TEXT ·pcAVX2(SB), NOSPLIT, $200-88
	FTZ_ON
	MOVQ f+32(FP), SI
	MOVQ src+40(FP), R8
	MOVQ ns+48(FP), CX
	VBROADCASTSS kconst<>+0(SB), Y15 // 3
	VBROADCASTSS kconst<>+4(SB), Y0
	VMOVUPS Y0, c075-136(SP)
	VBROADCASTSS kconst<>+8(SB), Y0
	VMOVUPS Y0, five-168(SP)
	VBROADCASTSS kconst<>+12(SB), Y0
	VMOVUPS Y0, negsix-200(SP)
	XORQ DI, DI                   // target index

pc_target:
	CMPQ DI, nt+24(FP)
	JGE  pc_done
	TARGET8(tx+0(FP), 0, xi-104(SP))
	TARGET8(ty+8(FP), 8, yi-72(SP))
	TARGET8(tz+16(FP), 16, zi-40(SP))
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ DX, DX                   // source lane

pc_src:
	PC_BLOCK(VRSQRTPS, xi-104(SP), yi-72(SP), zi-40(SP), c075-136(SP), five-168(SP), negsix-200(SP), Y15, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11, Y12, Y13, Y14)
	ADDQ $8, DX
	CMPQ DX, CX
	JLT  pc_src

	REDUCE
	INCQ DI
	JMP  pc_target

pc_done:
	FTZ_OFF
	VZEROUPPER
	RET

// func pcAVX512(tx, ty, tz *float64, nt int, f *frame, src *float32, ns int,
//               ax, ay, az, apot *float64)
//
// pcAVX2 sixteen lanes wide; ns is a positive multiple of 16. The target and
// the constants live in Z16..Z21, cleared before returning.
TEXT ·pcAVX512(SB), NOSPLIT, $8-88
	FTZ_ON
	MOVQ f+32(FP), SI
	MOVQ src+40(FP), R8
	MOVQ ns+48(FP), CX
	VBROADCASTSS kconst<>+0(SB), Z15 // 3
	VBROADCASTSS kconst<>+4(SB), Z19 // ¾
	VBROADCASTSS kconst<>+8(SB), Z20 // 5
	VBROADCASTSS kconst<>+12(SB), Z21 // −6
	XORQ DI, DI                   // target index

pc_target:
	CMPQ DI, nt+24(FP)
	JGE  pc_done
	TARGET(tx+0(FP), 0, Z16)
	TARGET(ty+8(FP), 8, Z17)
	TARGET(tz+16(FP), 16, Z18)
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	XORQ DX, DX                   // source lane

pc_src:
	PC_BLOCK(VRSQRT14PS, Z16, Z17, Z18, Z19, Z20, Z21, Z15, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, Z10, Z11, Z12, Z13, Z14)
	ADDQ $16, DX
	CMPQ DX, CX
	JLT  pc_src

	FOLD16
	REDUCE
	INCQ DI
	JMP  pc_target

pc_done:
	FTZ_OFF
	VPXORD Z16, Z16, Z16
	VPXORD Z17, Z17, Z17
	VPXORD Z18, Z18, Z18
	VPXORD Z19, Z19, Z19
	VPXORD Z20, Z20, Z20
	VPXORD Z21, Z21, Z21
	VZEROUPPER
	RET

// func narrowAVX2(dst *float32, src *float64, n int, origin, scale float64)
//
// dst[i] = float32((src[i] − origin)·scale) for i < n.
TEXT ·narrowAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD origin+24(FP), Y1
	VBROADCASTSD scale+32(FP), Y2
	MOVQ CX, BX
	ANDQ $-4, BX
	XORQ DX, DX
narrow_loop:
	CMPQ DX, BX
	JGE  narrow_tail
	VMOVUPD (SI)(DX*8), Y0
	VSUBPD  Y1, Y0, Y0
	VMULPD  Y2, Y0, Y0
	VCVTPD2PSY Y0, X0
	VMOVUPS X0, (DI)(DX*4)
	ADDQ $4, DX
	JMP  narrow_loop
narrow_tail:
	CMPQ DX, CX
	JGE  narrow_done
	VMOVSD (SI)(DX*8), X0
	VSUBSD X1, X0, X0
	VMULSD X2, X0, X0
	VCVTSD2SS X0, X0, X0
	VMOVSS X0, (DI)(DX*4)
	INCQ DX
	JMP  narrow_tail
narrow_done:
	VZEROUPPER
	RET

// BOXSTEP takes one vector of x, y and z (Y9, Y10, Y11) into boxAVX2's
// running least (Y0–Y2), greatest (Y3–Y5) and x·0 sums (Y6–Y8).
#define BOXSTEP \
	VMINPD Y9, Y0, Y0; \
	VMINPD Y10, Y1, Y1; \
	VMINPD Y11, Y2, Y2; \
	VMAXPD Y9, Y3, Y3; \
	VMAXPD Y10, Y4, Y4; \
	VMAXPD Y11, Y5, Y5; \
	VFMADD231PD Y15, Y9, Y6; \
	VFMADD231PD Y15, Y10, Y7; \
	VFMADD231PD Y15, Y11, Y8

// BOXFOLD finishes one axis of boxAVX2: the least of the four lanes of lo
// to olo, the greatest of hi plus the sum of the lanes of sum to ohi.
#define BOXFOLD(lo, xlo, hi, xhi, sum, xsum, olo, ohi) \
	VEXTRACTF128 $1, lo, X9; \
	VMINPD X9, xlo, xlo; \
	VPERMILPD $1, xlo, X9; \
	VMINSD X9, xlo, xlo; \
	VMOVSD xlo, olo; \
	VEXTRACTF128 $1, hi, X9; \
	VMAXPD X9, xhi, xhi; \
	VPERMILPD $1, xhi, X9; \
	VMAXSD X9, xhi, xhi; \
	VEXTRACTF128 $1, sum, X9; \
	VADDPD X9, xsum, xsum; \
	VPERMILPD $1, xsum, X9; \
	VADDSD X9, xsum, xsum; \
	VADDSD xsum, xhi, xhi; \
	VMOVSD xhi, ohi

// func boxAVX2(tx, ty, tz *float64, n int, box *[6]float64)
//
// The bounding box of the n ≥ 1 points (tx[i], ty[i], tz[i]): the least
// coordinate per axis in box[0:3] and the greatest in box[3:6], with a NaN as
// the greatest of every axis that holds an Inf or a NaN. VMINPD and VMAXPD do
// not propagate a NaN (each returns its second source when either is one), so
// each axis also sums x·0, which is 0 for finite x and a NaN otherwise, and
// adds the sum to its greatest. The tail loads each remaining point broadcast
// to every lane, where the minimum and maximum are idempotent.
TEXT ·boxAVX2(SB), NOSPLIT, $0-40
	MOVQ tx+0(FP), AX
	MOVQ ty+8(FP), BX
	MOVQ tz+16(FP), SI
	MOVQ n+24(FP), CX
	VBROADCASTSD (AX), Y0         // least x, y, z
	VBROADCASTSD (BX), Y1
	VBROADCASTSD (SI), Y2
	VMOVAPD Y0, Y3                // greatest x, y, z
	VMOVAPD Y1, Y4
	VMOVAPD Y2, Y5
	VXORPD Y6, Y6, Y6             // Σ x·0, Σ y·0, Σ z·0
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y15, Y15, Y15          // 0
	MOVQ CX, R8
	ANDQ $-4, R8
	XORQ DX, DX
box_loop:
	CMPQ DX, R8
	JGE  box_tail
	VMOVUPD (AX)(DX*8), Y9
	VMOVUPD (BX)(DX*8), Y10
	VMOVUPD (SI)(DX*8), Y11
	BOXSTEP
	ADDQ $4, DX
	JMP  box_loop
box_tail:
	CMPQ DX, CX
	JGE  box_done
	VBROADCASTSD (AX)(DX*8), Y9
	VBROADCASTSD (BX)(DX*8), Y10
	VBROADCASTSD (SI)(DX*8), Y11
	BOXSTEP
	INCQ DX
	JMP  box_tail
box_done:
	MOVQ box+32(FP), DI
	BOXFOLD(Y0, X0, Y3, X3, Y6, X6, 0(DI), 24(DI))
	BOXFOLD(Y1, X1, Y4, X4, Y7, X7, 8(DI), 32(DI))
	BOXFOLD(Y2, X2, Y5, X5, Y8, X8, 16(DI), 40(DI))
	VZEROUPPER
	RET

// func maxAbsAVX2(x *float64, n int, origin float64) float64
//
// The largest |x[i] − origin| over i < n with its low 32 mantissa bits
// cleared — the exponent and range are what the wrapper needs — or an Inf or
// NaN when any of them is one. For non-negative doubles the order of the high
// words as unsigned integers is the order of the values, with every Inf and
// NaN above every finite one, so the running maximum is one VPMAXUD with a
// one-cycle dependency and needs no separate NaN bookkeeping.
TEXT ·maxAbsAVX2(SB), NOSPLIT, $0-32
	MOVQ x+0(FP), SI
	MOVQ n+8(FP), CX
	VBROADCASTSD origin+16(FP), Y3
	VPCMPEQD Y1, Y1, Y1
	VPSRLQ   $1, Y1, Y1           // 0x7FFF…: sign-clearing mask
	VPXOR Y0, Y0, Y0              // running maximum, per 32-bit word
	MOVQ CX, BX
	ANDQ $-4, BX
	XORQ DX, DX
maxabs_loop:
	CMPQ DX, BX
	JGE  maxabs_tail
	VMOVUPD (SI)(DX*8), Y2
	VSUBPD  Y3, Y2, Y2
	VPAND   Y1, Y2, Y2
	VPMAXUD Y2, Y0, Y0
	ADDQ $4, DX
	JMP  maxabs_loop
maxabs_tail:
	CMPQ DX, CX
	JGE  maxabs_done
	VMOVSD (SI)(DX*8), X2
	VSUBSD X3, X2, X2
	VPAND  X1, X2, X2
	VPMAXUD Y2, Y0, Y0            // upper lanes of Y2 are zero
	INCQ DX
	JMP  maxabs_tail
maxabs_done:
	VPSRLQ $32, Y0, Y0            // keep the high words
	VEXTRACTI128 $1, Y0, X1
	VPMAXUD X1, X0, X0
	VPSHUFD $0x4E, X0, X1
	VPMAXUD X1, X0, X0
	VPSLLQ $32, X0, X0
	VMOVQ  X0, ret+24(FP)
	VZEROUPPER
	RET
