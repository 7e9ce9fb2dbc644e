package parity

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// xPowMod returns x^n mod P for the CRC32-C polynomial P in the normal
// (unreflected) bit order, bit i the coefficient of x^i.
func xPowMod(n int) uint32 {
	const poly = 0x1edc6f41 // P without its x^32 term
	r := uint32(1)
	for ; n > 0; n-- {
		carry := r>>31 != 0
		r <<= 1
		if carry {
			r ^= poly
		}
	}
	return r
}

// foldPair returns the constants that move a 128-bit lane F bits forward:
// k_lo, by which its first 8 bytes are multiplied, and k_hi, by which its
// last 8 are. Reflected, a carry-less product carries one extra factor x,
// hence the −1s: the first 8 bytes stand at x^64 of the lane, so they
// need x^(F+64−1), the last 8 x^(F−1).
func foldPair(f int) (lo, hi uint64) {
	return uint64(bits.Reverse32(xPowMod(f+63))) << 32, uint64(bits.Reverse32(xPowMod(f-1))) << 32
}

// foldDataLines derives crc_amd64.s's DATA lines: the pairs for F = 2048
// and 512, then the lane folds 384, 256 and 128 and a zero pair.
func foldDataLines() string {
	var qs []uint64
	for _, f := range []int{2048, 512, 384, 256, 128} {
		lo, hi := foldPair(f)
		qs = append(qs, lo, hi)
	}
	qs = append(qs, 0, 0)
	var b strings.Builder
	for i, q := range qs {
		fmt.Fprintf(&b, "DATA crcConsts<>+%d(SB)/8, $0x%016x\n", 8*i, q)
	}
	fmt.Fprintf(&b, "GLOBL crcConsts<>(SB), RODATA|NOPTR, $%d\n", 8*len(qs))
	return b.String()
}

// TestFoldConstants derives the kernel's fold constants from the
// polynomial and compares them with crc_amd64.s's DATA lines; on a
// mismatch it prints the lines to paste in.
func TestFoldConstants(t *testing.T) {
	src, err := os.ReadFile("crc_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, l := range strings.SplitAfter(string(src), "\n") {
		if strings.HasPrefix(l, "DATA crcConsts<>") || strings.HasPrefix(l, "GLOBL crcConsts<>") {
			got.WriteString(l)
		}
	}
	if want := foldDataLines(); got.String() != want {
		t.Fatalf("crc_amd64.s's constants differ from the derived ones; replace its DATA and GLOBL lines with:\n%s", want)
	}
}

// TestFoldPairMovesALane checks the fold identity the constants rest on
// without any kernel: a 16-byte lane followed by F/8 zero bytes has the
// same CRC register as the lane's fold, as 16 bytes, under a zero start.
func TestFoldPairMovesALane(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, f := range []int{128, 256, 384, 512, 2048} {
		var lane [16]byte
		rng.Read(lane[:])
		msg := append(lane[:], make([]byte, f/8)...)
		lo, hi := foldPair(f)
		a := clmul(binary.LittleEndian.Uint64(lane[:8]), lo)
		b := clmul(binary.LittleEndian.Uint64(lane[8:]), hi)
		var folded [16]byte
		binary.LittleEndian.PutUint64(folded[:8], a[0]^b[0])
		binary.LittleEndian.PutUint64(folded[8:], a[1]^b[1])
		if got, want := ^crc32.Update(^uint32(0), Castagnoli, folded[:]), ^crc32.Update(^uint32(0), Castagnoli, msg); got != want {
			t.Errorf("F=%d: folded lane's register %08x, lane+zeros %08x", f, got, want)
		}
	}
}

// clmul is the carry-less product of a and b, low word first.
func clmul(a, b uint64) [2]uint64 {
	var r [2]uint64
	for i := 0; i < 64; i++ {
		if b>>i&1 != 0 {
			r[0] ^= a << i
			if i > 0 {
				r[1] ^= a >> (64 - i)
			}
		}
	}
	return r
}

// withKernels runs f once on the kernel this CPU gets and once with the
// VPCLMULQDQ kernels switched off, the fallback every other CPU and
// every race or purego build runs. On a CPU or build without them the
// first case skips, naming what is missing.
func withKernels(t *testing.T, f func(t *testing.T)) {
	t.Run("vpclmulqdq", func(t *testing.T) {
		if !vector {
			t.Skipf("VPCLMULQDQ kernels off: missing %s", vectorMissing())
		}
		f(t)
	})
	t.Run("fallback", func(t *testing.T) {
		defer func(v bool) { vector = v }(vector)
		vector = false
		f(t)
	})
}

// TestKernelSelection logs the kernel this CPU and build get.
func TestKernelSelection(t *testing.T) {
	missing := vectorMissing()
	if missing == "" {
		missing = "nothing"
	}
	t.Logf("XORCRCInto/UpdateCRC kernel: %s (VPCLMULQDQ kernels missing: %s)", kernelName(), missing)
	if vector != (vectorMissing() == "") {
		t.Fatalf("vector = %t, but vectorMissing() = %q", vector, vectorMissing())
	}
}

// TestUpdateCRCMatchesBytewiseReference: lengths around the kernel's
// 256-byte step and 16-byte lane, starting offsets 0–63, chained calls,
// and several initial CRCs, against the bytewise reference.
func TestUpdateCRCMatchesBytewiseReference(t *testing.T) {
	withKernels(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(56))
		back := make([]byte, 64+70<<10)
		rng.Read(back)
		lens := []int{0, 1, 15, 16, 17, 255, 256, 257, 511, 512, 768, 1023, 1024, 4096, 4104, 65536, 70 << 10}
		for _, l := range lens {
			for _, off := range []int{0, 1, 7, 16, 33, 63} {
				p := back[off : off+l]
				for _, init := range []uint32{0, 0xffffffff, rng.Uint32()} {
					want := refUpdate(init, p)
					if got := UpdateCRC(init, p); got != want {
						t.Fatalf("len=%d off=%d init=%08x: UpdateCRC = %08x, want %08x", l, off, init, got, want)
					}
					if l > 0 {
						cut := rng.Intn(l)
						if got := UpdateCRC(UpdateCRC(init, p[:cut]), p[cut:]); got != want {
							t.Fatalf("len=%d off=%d cut=%d: chained UpdateCRC = %08x, want %08x", l, off, cut, got, want)
						}
					}
				}
			}
		}
	})
}

// refUpdate continues crc (crc32.Update's convention) over p one byte at
// a time.
func refUpdate(crc uint32, p []byte) uint32 {
	c := ^crc
	for _, b := range p {
		c = Castagnoli[byte(c)^b] ^ c>>8
	}
	return ^c
}

// FuzzCRC32C checks UpdateCRC on both kernels against hash/crc32: data[0:2]
// give the length (capped at 70 KiB), data[2] the start offset (0–63),
// data[3:7] the initial CRC, and the rest seeds the contents. The
// committed corpus under testdata/fuzz/FuzzCRC32C/ is replayed by go test.
func FuzzCRC32C(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		var hdr [7]byte
		copy(hdr[:], data)
		l := min(int(binary.LittleEndian.Uint16(hdr[0:2]))<<1|int(hdr[2]>>7), 70<<10)
		off := int(hdr[2] & 63)
		init := binary.LittleEndian.Uint32(hdr[3:7])
		back := make([]byte, off+l)
		rand.New(rand.NewSource(int64(crc32.ChecksumIEEE(data)))).Read(back)
		p := back[off:]
		want := crc32.Update(init, crc32.MakeTable(crc32.Castagnoli), p)
		withKernels(t, func(t *testing.T) {
			if got := UpdateCRC(init, p); got != want {
				t.Fatalf("len=%d off=%d init=%08x: UpdateCRC = %08x, hash/crc32 %08x", l, off, init, got, want)
			}
		})
	})
}

// BenchmarkUpdateCRC is one 64 KiB stripe unit's CRC32-C, through
// UpdateCRC on the CPU's kernel and through hash/crc32.
func BenchmarkUpdateCRC(b *testing.B) {
	p := benchUnits(1)[0]
	b.Run("UpdateCRC", func(b *testing.B) {
		b.SetBytes(int64(len(p)))
		for i := 0; i < b.N; i++ {
			UpdateCRC(0, p)
		}
	})
	b.Run("hash-crc32", func(b *testing.B) {
		b.SetBytes(int64(len(p)))
		for i := 0; i < b.N; i++ {
			crc32.Update(0, Castagnoli, p)
		}
	})
}
