//go:build !purego && !race

#include "textflag.h"

// func xorCRC4(dst []byte, srcs [][]byte, crcs []uint32, n int)
TEXT ·xorCRC4(SB), NOSPLIT, $0-80
	MOVQ srcs_base+24(FP), R11
	MOVQ 0(R11), SI
	MOVQ 24(R11), R8
	MOVQ 48(R11), R9
	MOVQ 72(R11), R10
	MOVQ crcs_base+48(FP), R11
	MOVL 0(R11), AX
	MOVL 4(R11), DX
	MOVL 8(R11), R12
	MOVL 12(R11), R13
	NOTL AX
	NOTL DX
	NOTL R12
	NOTL R13
	MOVQ dst_base+0(FP), DI
	MOVQ n+72(FP), BX

	// Point every operand at its end and count BX up from -n to 0.
	ADDQ BX, DI
	ADDQ BX, SI
	ADDQ BX, R8
	ADDQ BX, R9
	ADDQ BX, R10
	NEGQ BX

	// One word of each source goes into that source's CRC32Q chain (AX,
	// DX, R12, R13); CX ends as the four words' XOR.
loop:
	MOVQ   (SI)(BX*1), CX
	CRC32Q CX, AX
	MOVQ   (R8)(BX*1), R11
	CRC32Q R11, DX
	XORQ   R11, CX
	MOVQ   (R9)(BX*1), R11
	CRC32Q R11, R12
	XORQ   R11, CX
	MOVQ   (R10)(BX*1), R11
	CRC32Q R11, R13
	XORQ   R11, CX
	MOVQ   CX, (DI)(BX*1)
	ADDQ   $8, BX
	JNZ    loop

	NOTL AX
	NOTL DX
	NOTL R12
	NOTL R13
	MOVQ crcs_base+48(FP), R11
	MOVL AX, 0(R11)
	MOVL DX, 4(R11)
	MOVL R12, 8(R11)
	MOVL R13, 12(R11)
	RET

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv() uint32
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
