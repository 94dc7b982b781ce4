// AVX2+FMA batch force kernels (DESIGN.md §12): single precision, eight
// source lanes per YMM register. The Go wrapper (dispatch_amd64.go) narrows
// one tile of sources to float32 — coordinates relative to the call's origin,
// everything normalised by exact powers of two — into planes of planeLanes
// lanes, padded with zero-mass lanes to a multiple of 8, so the kernels have
// no remainder path. Each kernel narrows its targets the same way, keeps
// eight float32 partial sums per accumulator, and at the end of the tile
// finishes the sums in float64, undoes the normalisation and adds the result
// into the caller's float64 arrays.
//
// 1/√r² is VRSQRTPS plus one Newton step that leaves out the factor ½:
// z = y·(3 − r²·y²) = 2/√r². The wrapper halves the masses (and divides the
// quadrupoles by 16) and folds the remaining powers of two into the scale of
// the sums. ε² starts the r² chain and the wrapper guarantees ε² ≥ 2⁻³² in
// normalised units, so r² is never zero and no power of z overflows.

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
// the frame in SI — and broadcasts it to a stack slot.
#define TARGET(ptr, o, slot) \
	MOVQ ptr, AX; \
	VMOVSD (AX)(DI*8), X0; \
	VSUBSD o(SI), X0, X0; \
	VMULSD F_LSCALE(SI), X0, X0; \
	VCVTSD2SS X0, X0, X0; \
	VBROADCASTSS X0, Y0; \
	VMOVUPS Y0, slot

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

// RSQRT2 turns r² in r into z = 2/√r² in z (relative error ≤ 2.1e-7, always
// short): y = VRSQRTPS(r²), z = y·(3 − r²·y·y). three is 3.0 in all lanes.
#define RSQRT2(r, z, three) \
	VRSQRTPS r, z; \
	VMULPS  z, r, r; \
	VFNMADD213PS three, z, r; \
	VMULPS  r, z, z

// PP_BLOCK is one 8-lane block of the p-p loop at byte offset o from lane DX:
//
//	dr = s − t               r² = ε² + dx² + dy² + dz²   z = 2/√r²
//	mz = m'·z   pot −= mz    a += dr·(mz·z²)
#define PP_BLOCK(o, a, b, c, r, z) \
	VMOVUPS o(R8)(DX*4), a; \
	VSUBPS  xi-104(SP), a, a; \
	VMOVUPS PLANE+o(R8)(DX*4), b; \
	VSUBPS  yi-72(SP), b, b; \
	VMOVUPS 2*PLANE+o(R8)(DX*4), c; \
	VSUBPS  zi-40(SP), c, c; \
	VMOVAPS Y15, r; \
	VFMADD231PS a, a, r; \
	VFMADD231PS b, b, r; \
	VFMADD231PS c, c, r; \
	RSQRT2(r, z, Y14); \
	VMULPS  3*PLANE+o(R8)(DX*4), z, r; \
	VSUBPS  r, Y3, Y3; \
	VMULPS  z, z, z; \
	VMULPS  r, z, z; \
	VFMADD231PS a, z, Y0; \
	VFMADD231PS b, z, Y1; \
	VFMADD231PS c, z, Y2

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
	TARGET(tx+0(FP), 0, xi-104(SP))
	TARGET(ty+8(FP), 8, yi-72(SP))
	TARGET(tz+16(FP), 16, zi-40(SP))
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ DX, DX                   // source lane

pp_pair:                              // two independent rsqrt chains in flight
	CMPQ DX, BX
	JGE  pp_tail
	PP_BLOCK(0, Y4, Y5, Y6, Y7, Y8)
	PP_BLOCK(32, Y9, Y10, Y11, Y12, Y13)
	ADDQ $16, DX
	JMP  pp_pair

pp_tail:
	CMPQ DX, CX
	JGE  pp_reduce
	PP_BLOCK(0, Y4, Y5, Y6, Y7, Y8)

pp_reduce:
	REDUCE
	INCQ DI
	JMP  pp_target

pp_done:
	FTZ_OFF
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
	TARGET(tx+0(FP), 0, xi-104(SP))
	TARGET(ty+8(FP), 8, yi-72(SP))
	TARGET(tz+16(FP), 16, zi-40(SP))
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ DX, DX                   // source lane

pc_src:
	VMOVUPS (R8)(DX*4), Y4
	VSUBPS  xi-104(SP), Y4, Y4     // dx
	VMOVUPS PLANE(R8)(DX*4), Y5
	VSUBPS  yi-72(SP), Y5, Y5     // dy
	VMOVUPS 2*PLANE(R8)(DX*4), Y6
	VSUBPS  zi-40(SP), Y6, Y6     // dz
	VBROADCASTSS F_EPS2(SI), Y7
	VFMADD231PS Y4, Y4, Y7
	VFMADD231PS Y5, Y5, Y7
	VFMADD231PS Y6, Y6, Y7        // r²
	RSQRT2(Y7, Y8, Y15)           // z

	VFNMADD231PS 3*PLANE(R8)(DX*4), Y8, Y3 // pot −= m'·z
	VMULPS Y8, Y8, Y7             // z²
	VMULPS Y7, Y8, Y9             // z³
	VMULPS Y7, Y9, Y10            // z⁵

	VMULPS      4*PLANE(R8)(DX*4), Y4, Y11 // qxx·dx
	VFMADD231PS 7*PLANE(R8)(DX*4), Y5, Y11 // + qxy·dy
	VFMADD231PS 8*PLANE(R8)(DX*4), Y6, Y11 // + qxz·dz  → qrx
	VMULPS      7*PLANE(R8)(DX*4), Y4, Y12 // qxy·dx
	VFMADD231PS 5*PLANE(R8)(DX*4), Y5, Y12 // + qyy·dy
	VFMADD231PS 9*PLANE(R8)(DX*4), Y6, Y12 // + qyz·dz  → qry
	VMULPS      8*PLANE(R8)(DX*4), Y4, Y13 // qxz·dx
	VFMADD231PS 9*PLANE(R8)(DX*4), Y5, Y13 // + qyz·dy
	VFMADD231PS 6*PLANE(R8)(DX*4), Y6, Y13 // + qzz·dz  → qrz

	VMULPS      Y11, Y4, Y14
	VFMADD231PS Y12, Y5, Y14
	VFMADD231PS Y13, Y6, Y14      // dr·Q'·dr

	VMOVUPS 4*PLANE(R8)(DX*4), Y8
	VADDPS  5*PLANE(R8)(DX*4), Y8, Y8
	VADDPS  6*PLANE(R8)(DX*4), Y8, Y8 // trQ'
	VMULPS  Y9, Y8, Y8            // p1
	VMULPS  c075-136(SP), Y14, Y14
	VMULPS  Y10, Y14, Y14         // p2
	VADDPS  Y8, Y3, Y3            // pot += p1
	VSUBPS  Y14, Y3, Y3           // pot −= p2

	VMULPS       five-168(SP), Y14, Y14
	VFNMADD231PS Y15, Y8, Y14     // 5·p2 − 3·p1
	VMULPS       3*PLANE(R8)(DX*4), Y9, Y9
	VFMADD231PS  Y7, Y14, Y9      // s
	VMULPS       negsix-200(SP), Y10, Y10 // q5 = −6·z⁵

	VFMADD231PS Y9, Y4, Y0        // ax += dx·s
	VFMADD231PS Y10, Y11, Y0      // ax += qrx·q5
	VFMADD231PS Y9, Y5, Y1
	VFMADD231PS Y10, Y12, Y1
	VFMADD231PS Y9, Y6, Y2
	VFMADD231PS Y10, Y13, Y2

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
