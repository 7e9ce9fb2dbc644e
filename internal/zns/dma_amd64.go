//go:build !purego && !race

package zns

import "unsafe"

// dmaCopy is copy for a destination in zone memory: the modelled DMA's
// write into the device. Over the middle of dst, from its first 16-byte
// boundary in steps of 64 bytes, it stores with SSE2 MOVNTO, which writes
// whole lines without reading them first, and ends in SFENCE, so the
// streamed bytes are visible before the caller publishes the copy (done,
// or the release of d.mu). The head before that boundary and the tail
// under 64 bytes go through copy. dst and src must not overlap.
func dmaCopy(dst, src []byte) int {
	n := min(len(dst), len(src))
	h := int(-uintptr(unsafe.Pointer(unsafe.SliceData(dst))) & 15)
	if n-h < 64 {
		return copy(dst, src)
	}
	m := (n - h) &^ 63
	copy(dst[:h], src)
	ntCopy(&dst[h], &src[h], m)
	copy(dst[h+m:n], src[h+m:])
	return n
}

// ntCopy streams n bytes, a positive multiple of 64, from src to the
// 16-byte-aligned dst, then fences (dma_amd64.s).
//
//go:noescape
func ntCopy(dst, src *byte, n int)
