// Package parity implements the XOR erasure coding used by RAID-5-style
// arrays: encoding a parity unit over D data units and reconstructing any
// single missing unit from the survivors, and the CRC32-C every stripe
// unit, checksum row and zraid slot is checked by.
//
// Every CRC32-C the data path takes goes through one kernel family: on
// amd64 CPUs with AVX512F, AVX512VL, VPCLMULQDQ and SSE4.2 (and an OS
// that saves the ZMM state), carry-less-multiply folding over ZMM
// registers (crc_amd64.s), one stream in UpdateCRC and four sources
// beside their XOR in XORCRCInto. Elsewhere, and in race and purego
// builds, UpdateCRC is hash/crc32 and XORCRCInto's four sources take the
// SSE4.2 CRC32Q kernel or the Go path; the bytes and CRCs are the same.
package parity

import (
	"crypto/subtle"
	"fmt"
	"hash/crc32"
	"sync"
)

// xor sets dst = a ^ b. It is the package's one kernel: every entry point
// below reduces to it, and it reduces to subtle.XORBytes (vector assembly
// on amd64 and arm64). All three slices must have the same length; dst may
// be exactly a or exactly b.
func xor(dst, a, b []byte) {
	if len(a) != len(dst) || len(b) != len(dst) {
		panic(fmt.Sprintf("parity: length mismatch %d, %d != %d", len(a), len(b), len(dst)))
	}
	subtle.XORBytes(dst, a, b)
}

// XORInto xors src into dst in place. The slices must be the same length.
func XORInto(dst, src []byte) { xor(dst, dst, src) }

// Encode computes the XOR parity of units into a freshly allocated slice.
// All units must have equal length; Encode panics otherwise. Encode of no
// units returns nil.
func Encode(units ...[]byte) []byte {
	if len(units) == 0 {
		return nil
	}
	p := make([]byte, len(units[0]))
	EncodeInto(p, units...)
	return p
}

// EncodeInto computes the XOR parity of units into dst (which must match
// the unit length; its previous content is ignored). It avoids allocation
// on hot paths.
func EncodeInto(dst []byte, units ...[]byte) {
	checkLens(len(dst), units)
	encodeRange(dst, units, 0, len(dst))
}

func checkLens(n int, units [][]byte) {
	for _, u := range units {
		if len(u) != n {
			panic(fmt.Sprintf("parity: length mismatch %d != %d", len(u), n))
		}
	}
}

// encodeRange sets dst[lo:hi] to the XOR of the units over the same range.
func encodeRange(dst []byte, units [][]byte, lo, hi int) {
	d := dst[lo:hi]
	switch len(units) {
	case 0:
		clear(d)
	case 1:
		copy(d, units[0][lo:hi])
	default:
		xor(d, units[0][lo:hi], units[1][lo:hi])
		for _, u := range units[2:] {
			xor(d, d, u[lo:hi])
		}
	}
}

// Reconstruct recovers the single missing unit given the D-1 surviving
// data units and the parity unit. XOR reconstruction is symmetric, so the
// caller simply passes every surviving unit (data and parity alike).
func Reconstruct(survivors ...[]byte) []byte {
	return Encode(survivors...)
}

// Castagnoli is the CRC32-C table: pass it to XORCRCInto and XORCRC for
// the checksums UpdateCRC computes, and their kernels run.
var Castagnoli = crc32.MakeTable(crc32.Castagnoli)

// UpdateCRC returns crc continued over p under CRC32-C, with
// crc32.Update's convention: UpdateCRC(0, p) is p's checksum. The
// VPCLMULQDQ kernel takes p's whole 256-byte steps where the CPU has it;
// hash/crc32 takes the rest.
func UpdateCRC(crc uint32, p []byte) uint32 {
	crc, n := crcKernel(crc, p)
	return crc32.Update(crc, Castagnoli, p[n:])
}

// updateCRC is crc32.Update, through UpdateCRC's kernel under Castagnoli.
func updateCRC(crc uint32, tab *crc32.Table, p []byte) uint32 {
	if tab == Castagnoli {
		return UpdateCRC(crc, p)
	}
	return crc32.Update(crc, tab, p)
}

// fuseBlock is the chunk size of the fused XOR+CRC Go path: small enough
// that one chunk of every unit plus the parity chunk stays cache-hot
// between the CRC update and the XOR over the same bytes.
const fuseBlock = 4096

// XORCRCInto fuses parity encoding and per-unit checksumming into a
// single pass: dst receives the XOR of srcs, and crcs — which must have
// len(srcs)+1 entries, zero-initialized by the caller — receives the
// CRC32 of each source (crcs[i] for srcs[i]) and of dst (the last
// entry), using tab. Equivalent to EncodeInto followed by per-slice
// crc32.Checksum, but each block of the data is checksummed while it is
// read for the XOR, and dst's CRC is derived from the sources' (XORCRC)
// instead of read back. All slices must have dst's length; dst may be
// exactly srcs[0].
//
// Under the Castagnoli table a four-source kernel (xorCRCKernel) takes the
// first four sources: on VPCLMULQDQ CPUs over every whole 256-byte step
// (xorCRC4Vec), otherwise, with SSE4.2, over every whole 8-byte word
// (xorCRC4). Their tail, and every other source, go through foldRange,
// whose CRCs are UpdateCRC's.
func XORCRCInto(dst []byte, srcs [][]byte, crcs []uint32, tab *crc32.Table) {
	if len(crcs) != len(srcs)+1 {
		panic(fmt.Sprintf("parity: %d crc slots for %d sources", len(crcs), len(srcs)))
	}
	checkLens(len(dst), srcs)
	k, m := xorCRCKernel(dst, srcs, crcs, tab)
	if k > 0 {
		foldRange(dst, srcs[:k], crcs[:k], tab, m, false)
	}
	foldRange(dst, srcs[k:], crcs[k:], tab, 0, k > 0)
	crcs[len(srcs)] = XORCRC(crcs[:len(srcs)], len(dst), tab)
}

// foldRange sets dst[lo:] to the XOR of srcs over the same range, or XORs
// them into it when acc, and continues each source's CRC over the range,
// a fuseBlock at a time. Each block is checksummed before dst is written,
// so dst may be exactly srcs[0].
func foldRange(dst []byte, srcs [][]byte, crcs []uint32, tab *crc32.Table, lo int, acc bool) {
	for ; lo < len(dst); lo += fuseBlock {
		hi := min(lo+fuseBlock, len(dst))
		for i, s := range srcs {
			crcs[i] = updateCRC(crcs[i], tab, s[lo:hi])
		}
		if !acc {
			encodeRange(dst, srcs, lo, hi)
			continue
		}
		for _, s := range srcs {
			xor(dst[lo:hi], dst[lo:hi], s[lo:hi])
		}
	}
}

// XORCRC returns the CRC32 (under tab) of the XOR of len(crcs) units of n
// bytes each, given the units' CRCs. A CRC is affine over GF(2): for
// equal lengths crc(a^b) = crc(a) ^ crc(b) ^ crc(0ⁿ), so the XOR of D
// units has crc ⊕crc(uᵢ), xored once more with crc(0ⁿ) when D is even.
func XORCRC(crcs []uint32, n int, tab *crc32.Table) uint32 {
	var c uint32
	for _, x := range crcs {
		c ^= x
	}
	if len(crcs)%2 == 0 {
		c ^= zeroCRC(n, tab)
	}
	return c
}

// zeroCRCs caches crc(0ⁿ) per table and length: computed once each.
var zeroCRCs struct {
	sync.Mutex
	m map[zeroKey]uint32
}

type zeroKey struct {
	tab *crc32.Table
	n   int
}

var zeroBlock [fuseBlock]byte

// zeroCRC returns the CRC32 under tab of n zero bytes.
func zeroCRC(n int, tab *crc32.Table) uint32 {
	k := zeroKey{tab, n}
	zeroCRCs.Lock()
	defer zeroCRCs.Unlock()
	c, ok := zeroCRCs.m[k]
	if !ok {
		for left := n; left > 0; left -= fuseBlock {
			c = crc32.Update(c, tab, zeroBlock[:min(left, fuseBlock)])
		}
		if zeroCRCs.m == nil {
			zeroCRCs.m = make(map[zeroKey]uint32)
		}
		zeroCRCs.m[k] = c
	}
	return c
}
