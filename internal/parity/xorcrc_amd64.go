//go:build !purego && !race

package parity

import "hash/crc32"

var (
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
	sse42      = hasSSE42()
)

// xorCRCKernel runs xorCRC4 over every whole 8-byte word of dst, when
// there are at least four sources, tab is Castagnoli and the CPU has
// SSE4.2, and returns how many sources (k) and bytes (m) it took: dst[:m]
// is set to the XOR of srcs[:4] and crcs[:4] are continued over it.
func xorCRCKernel(dst []byte, srcs [][]byte, crcs []uint32, tab *crc32.Table) (k, m int) {
	if tab != castagnoli || !sse42 || len(srcs) < 4 || len(dst) < 8 {
		return 0, 0
	}
	m = len(dst) &^ 7
	xorCRC4(dst, srcs, crcs, m)
	return 4, m
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

// hasSSE42 reports CPUID leaf 1's SSE4.2 bit, which CRC32Q needs and
// amd64's baseline does not include (xorcrc_amd64.s).
func hasSSE42() bool
