//go:build !purego && !race

package parity

import "hash/crc32"

var (
	sse42 = cpuHas(1, 0, 2, 20)

	// vector is true when the CPU runs the VPCLMULQDQ kernels
	// (crc_amd64.s); tests clear it to force the fallback.
	vector = vectorMissing() == ""
)

// vecStep is the VPCLMULQDQ kernels' step: four 64-byte accumulators per
// stream.
const vecStep = 256

// crcKernel continues crc (crc32.Update's convention) over the longest
// prefix of p that the VPCLMULQDQ kernel takes, whole 256-byte steps, and
// returns the CRC and the prefix's length.
func crcKernel(crc uint32, p []byte) (uint32, int) {
	n := len(p) &^ (vecStep - 1)
	if !vector || n == 0 {
		return crc, 0
	}
	return updateVec(crc, p[:n]), n
}

// xorCRCKernel runs a four-source kernel when there are at least four
// sources and tab is Castagnoli, and returns how many sources (k) and
// bytes (m) it took: dst[:m] is set to the XOR of srcs[:4] and crcs[:4]
// are continued over it. With VPCLMULQDQ it takes every whole 256-byte
// step (xorCRC4Vec); otherwise, with SSE4.2, every whole 8-byte word
// (xorCRC4).
func xorCRCKernel(dst []byte, srcs [][]byte, crcs []uint32, tab *crc32.Table) (k, m int) {
	if tab != Castagnoli || len(srcs) < 4 {
		return 0, 0
	}
	switch {
	case vector && len(dst) >= vecStep:
		m = len(dst) &^ (vecStep - 1)
		xorCRC4Vec(dst, srcs, crcs, m)
	case sse42 && len(dst) >= 8:
		m = len(dst) &^ 7
		xorCRC4(dst, srcs, crcs, m)
	default:
		return 0, 0
	}
	return 4, m
}

// kernelName names the kernel XORCRCInto's four-source step and UpdateCRC
// run on this CPU.
func kernelName() string {
	switch {
	case vector:
		return "vpclmulqdq"
	case sse42:
		return "crc32q"
	}
	return "go"
}

// vectorMissing names the first CPU feature the VPCLMULQDQ kernels need
// that this CPU or its OS lacks, or returns "" when it has them all:
// SSE4.2 (CRC32Q), PCLMULQDQ, AVX512F, AVX512VL and VPCLMULQDQ, and the
// OS saving the SSE, AVX, opmask and ZMM state (XCR0 bits 1, 2, 5, 6, 7).
func vectorMissing() string {
	for _, f := range []struct {
		name                string
		leaf, sub, reg, bit uint32
	}{
		{"sse4.2", 1, 0, 2, 20},
		{"pclmulqdq", 1, 0, 2, 1},
		{"osxsave", 1, 0, 2, 27},
		{"avx512f", 7, 0, 1, 16},
		{"avx512vl", 7, 0, 1, 31},
		{"vpclmulqdq", 7, 0, 2, 10},
	} {
		if !cpuHas(f.leaf, f.sub, f.reg, f.bit) {
			return f.name
		}
	}
	const zmmState = 0xe6
	if xgetbv()&zmmState != zmmState {
		return "os zmm state"
	}
	return ""
}

// cpuHas reports bit of register reg (0 EAX, 1 EBX, 2 ECX, 3 EDX) of
// CPUID leaf, sub.
func cpuHas(leaf, sub, reg, bit uint32) bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); leaf > maxLeaf {
		return false
	}
	a, b, c, d := cpuid(leaf, sub)
	return [4]uint32{a, b, c, d}[reg]>>bit&1 != 0
}

// xorCRC4 sets dst[:n] to the XOR of srcs[:4] over [:n] and continues
// each crcs[i] (crc32.Update's convention) over srcs[i][:n]. One 8-byte
// step loads a word of each source, folds it into that source's own
// CRC32Q chain, and stores the words' XOR once; four independent chains
// keep the CRC unit busy past one chain's 3-cycle latency. n is a
// positive multiple of 8 no larger than any slice; srcs and crcs have at
// least four entries (xorcrc_amd64.s).
//
//go:noescape
func xorCRC4(dst []byte, srcs [][]byte, crcs []uint32, n int)

// xorCRC4Vec is xorCRC4 on VPCLMULQDQ: n is a positive multiple of 256,
// and each source is folded 256 bytes a step (crc_amd64.s).
//
//go:noescape
func xorCRC4Vec(dst []byte, srcs [][]byte, crcs []uint32, n int)

// updateVec returns crc (crc32.Update's convention) continued over p, a
// positive multiple of 256 bytes long (crc_amd64.s).
//
//go:noescape
func updateVec(crc uint32, p []byte) uint32

// cpuid returns the CPUID registers of leaf, sub (xorcrc_amd64.s).
func cpuid(leaf, sub uint32) (a, b, c, d uint32)

// xgetbv returns XCR0's low half; call it only when CPUID reports
// OSXSAVE (xorcrc_amd64.s).
func xgetbv() uint32
