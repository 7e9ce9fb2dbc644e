//go:build !purego && !race

#include "textflag.h"

// CRC32-C by carry-less multiplication (Intel, "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ"), on VPCLMULQDQ over ZMM registers.
// A 128-bit lane holding a chunk's first 8 bytes L and last 8 bytes H
// moves F bits forward as clmul(L, k_lo) ^ clmul(H, k_hi), with k_lo =
// rev32(x^(F+63) mod P)<<32 and k_hi = rev32(x^(F-1) mod P)<<32; the
// caller's register is XORed into the first 4 bytes, and the last 128-bit
// remainder is reduced by two CRC32Q from 0. TestFoldConstants derives the
// constants below and prints these lines when they differ.
//
// crcConsts: +0 F=2048 (four accumulators, 256 bytes a step), +16 F=512
// (accumulator to accumulator, 64 bytes a step), +32 the lane folds of a
// ZMM into its last lane: F=384, 256, 128, and zero for the last lane.
DATA crcConsts<>+0(SB)/8, $0xe9a5d8be00000000
DATA crcConsts<>+8(SB)/8, $0x1426a81500000000
DATA crcConsts<>+16(SB)/8, $0x1c19243b00000000
DATA crcConsts<>+24(SB)/8, $0x75bba45b00000000
DATA crcConsts<>+32(SB)/8, $0xa46ef4aa00000000
DATA crcConsts<>+40(SB)/8, $0x6051243f00000000
DATA crcConsts<>+48(SB)/8, $0x33ccbbbc00000000
DATA crcConsts<>+56(SB)/8, $0xa2158b3400000000
DATA crcConsts<>+64(SB)/8, $0x3743f7bd00000000
DATA crcConsts<>+72(SB)/8, $0x3171d43000000000
DATA crcConsts<>+80(SB)/8, $0x0000000000000000
DATA crcConsts<>+88(SB)/8, $0x0000000000000000
GLOBL crcConsts<>(SB), RODATA|NOPTR, $96

// FOLD moves acc F bits forward under the constants in k and XORs data in.
#define FOLD(k, acc, data, tmp) \
	VPCLMULQDQ $0x00, k, acc, tmp; \
	VPCLMULQDQ $0x11, k, acc, acc; \
	VPTERNLOGQ $0x96, data, tmp, acc

// REDUCE folds the four accumulators a0..a3 (consecutive 64-byte blocks)
// through a0 into a3's place, then its four lanes into one 128-bit
// remainder, and reduces it with two CRC32Q into ret, the
// register of crc32.Update's convention; x0 is a0's low 128 bits.
// Clobbers Z28-Z31 and R11.
#define REDUCE(a0, a1, a2, a3, x0, ret) \
	VBROADCASTI32X4 crcConsts<>+16(SB), Z28; \
	FOLD(Z28, a0, a1, Z29);                  \
	FOLD(Z28, a0, a2, Z29);                  \
	FOLD(Z28, a0, a3, Z29);                  \
	VMOVDQU64       crcConsts<>+32(SB), Z28; \
	VPCLMULQDQ      $0x00, Z28, a0, Z29;     \
	VPCLMULQDQ      $0x11, Z28, a0, Z30;     \
	VPXORQ          Z30, Z29, Z29;           \
	VEXTRACTI32X4   $3, a0, X31;             \
	VPXORQ          Z31, Z29, Z29;           \
	VEXTRACTI64X4   $1, Z29, Y30;            \
	VPXORQ          Y30, Y29, Y29;           \
	VEXTRACTI32X4   $1, Y29, X30;            \
	VPXORQ          X30, X29, x0;            \
	VMOVQ           x0, R11;                 \
	XORL            ret, ret;                \
	CRC32Q          R11, ret;                \
	VPEXTRQ         $1, x0, R11;             \
	CRC32Q          R11, ret;                \
	NOTL            ret

// func updateVec(crc uint32, p []byte) uint32
//
// len(p) is a positive multiple of 256.
TEXT ·updateVec(SB), NOSPLIT, $0-36
	MOVL crc+0(FP), AX
	MOVQ p_base+8(FP), SI
	MOVQ p_len+16(FP), CX
	NOTL AX

	VMOVDQU64 0(SI), Z0
	VMOVDQU64 64(SI), Z1
	VMOVDQU64 128(SI), Z2
	VMOVDQU64 192(SI), Z3
	VMOVD     AX, X4
	VPXORQ    Z4, Z0, Z0
	VBROADCASTI32X4 crcConsts<>+0(SB), Z5
	ADDQ $256, SI
	SUBQ $256, CX
	JZ   reduce

loop:
	FOLD(Z5, Z0, 0(SI), Z6)
	FOLD(Z5, Z1, 64(SI), Z7)
	FOLD(Z5, Z2, 128(SI), Z8)
	FOLD(Z5, Z3, 192(SI), Z9)
	ADDQ $256, SI
	SUBQ $256, CX
	JNZ  loop

reduce:
	REDUCE(Z0, Z1, Z2, Z3, X0, AX)
	MOVL AX, ret+32(FP)
	VZEROUPPER
	RET

// LOAD4 loads 64 bytes at off of each source into Z16-Z19 and stores
// their XOR at off of dst.
#define LOAD4(off) \
	VMOVDQU64  off(SI), Z16; \
	VMOVDQU64  off(R8), Z17; \
	VMOVDQU64  off(R9), Z18; \
	VMOVDQU64  off(R10), Z19; \
	VPXORQ     Z16, Z17, Z20; \
	VPTERNLOGQ $0x96, Z19, Z18, Z20; \
	VMOVDQU64  Z20, off(DI)

// func xorCRC4Vec(dst []byte, srcs [][]byte, crcs []uint32, n int)
//
// n is a positive multiple of 256 no larger than any slice. Source s's
// 256-byte step is folded in Z(4s)..Z(4s+3).
TEXT ·xorCRC4Vec(SB), NOSPLIT, $0-80
	MOVQ srcs_base+24(FP), R11
	MOVQ 0(R11), SI
	MOVQ 24(R11), R8
	MOVQ 48(R11), R9
	MOVQ 72(R11), R10
	MOVQ dst_base+0(FP), DI
	MOVQ n+72(FP), CX
	MOVQ crcs_base+48(FP), R11

	// The first step: the accumulators are the sources' own bytes, each
	// source's register XORed into its first 4 bytes.
	LOAD4(0)
	VMOVDQA64 Z16, Z0
	VMOVDQA64 Z17, Z4
	VMOVDQA64 Z18, Z8
	VMOVDQA64 Z19, Z12
	LOAD4(64)
	VMOVDQA64 Z16, Z1
	VMOVDQA64 Z17, Z5
	VMOVDQA64 Z18, Z9
	VMOVDQA64 Z19, Z13
	LOAD4(128)
	VMOVDQA64 Z16, Z2
	VMOVDQA64 Z17, Z6
	VMOVDQA64 Z18, Z10
	VMOVDQA64 Z19, Z14
	LOAD4(192)
	VMOVDQA64 Z16, Z3
	VMOVDQA64 Z17, Z7
	VMOVDQA64 Z18, Z11
	VMOVDQA64 Z19, Z15
	MOVL      0(R11), AX
	NOTL      AX
	VMOVD     AX, X16
	VPXORQ    Z16, Z0, Z0
	MOVL      4(R11), AX
	NOTL      AX
	VMOVD     AX, X16
	VPXORQ    Z16, Z4, Z4
	MOVL      8(R11), AX
	NOTL      AX
	VMOVD     AX, X16
	VPXORQ    Z16, Z8, Z8
	MOVL      12(R11), AX
	NOTL      AX
	VMOVD     AX, X16
	VPXORQ    Z16, Z12, Z12
	VBROADCASTI32X4 crcConsts<>+0(SB), Z21
	ADDQ $256, SI
	ADDQ $256, R8
	ADDQ $256, R9
	ADDQ $256, R10
	ADDQ $256, DI
	SUBQ $256, CX
	JZ   reduce4

	// Each 64-byte block of the step: the four sources' bytes go into dst
	// as their XOR and into their own accumulators.
loop4:
	LOAD4(0)
	FOLD(Z21, Z0, Z16, Z22)
	FOLD(Z21, Z4, Z17, Z23)
	FOLD(Z21, Z8, Z18, Z24)
	FOLD(Z21, Z12, Z19, Z25)
	LOAD4(64)
	FOLD(Z21, Z1, Z16, Z22)
	FOLD(Z21, Z5, Z17, Z23)
	FOLD(Z21, Z9, Z18, Z24)
	FOLD(Z21, Z13, Z19, Z25)
	LOAD4(128)
	FOLD(Z21, Z2, Z16, Z22)
	FOLD(Z21, Z6, Z17, Z23)
	FOLD(Z21, Z10, Z18, Z24)
	FOLD(Z21, Z14, Z19, Z25)
	LOAD4(192)
	FOLD(Z21, Z3, Z16, Z22)
	FOLD(Z21, Z7, Z17, Z23)
	FOLD(Z21, Z11, Z18, Z24)
	FOLD(Z21, Z15, Z19, Z25)
	ADDQ $256, SI
	ADDQ $256, R8
	ADDQ $256, R9
	ADDQ $256, R10
	ADDQ $256, DI
	SUBQ $256, CX
	JNZ  loop4

reduce4:
	MOVQ crcs_base+48(FP), DI
	REDUCE(Z0, Z1, Z2, Z3, X0, AX)
	MOVL AX, 0(DI)
	REDUCE(Z4, Z5, Z6, Z7, X4, AX)
	MOVL AX, 4(DI)
	REDUCE(Z8, Z9, Z10, Z11, X8, AX)
	MOVL AX, 8(DI)
	REDUCE(Z12, Z13, Z14, Z15, X12, AX)
	MOVL AX, 12(DI)
	VZEROUPPER
	RET
