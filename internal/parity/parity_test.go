package parity

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestXORInto(t *testing.T) {
	a := []byte{0x0f, 0xf0, 0xaa}
	b := []byte{0xff, 0xff, 0xaa}
	XORInto(a, b)
	if !bytes.Equal(a, []byte{0xf0, 0x0f, 0x00}) {
		t.Errorf("XORInto = %x", a)
	}
}

func TestXORIntoLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on length mismatch")
		}
	}()
	XORInto(make([]byte, 3), make([]byte, 4))
}

func TestEncodeEmpty(t *testing.T) {
	if Encode() != nil {
		t.Error("Encode() of nothing should be nil")
	}
}

func TestEncodeSelfInverse(t *testing.T) {
	a := []byte{1, 2, 3, 4}
	p := Encode(a, a)
	if !bytes.Equal(p, make([]byte, 4)) {
		t.Errorf("a^a = %x, want zeros", p)
	}
}

func TestEncodeDoesNotAliasInput(t *testing.T) {
	a := []byte{1, 2, 3}
	p := Encode(a)
	p[0] = 0xff
	if a[0] != 1 {
		t.Error("Encode aliased its input")
	}
}

func TestReconstructAnyUnit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const d, width = 4, 1024
	units := make([][]byte, d)
	for i := range units {
		units[i] = make([]byte, width)
		rng.Read(units[i])
	}
	p := Encode(units...)
	for missing := 0; missing < d; missing++ {
		survivors := [][]byte{p}
		for i, u := range units {
			if i != missing {
				survivors = append(survivors, u)
			}
		}
		got := Reconstruct(survivors...)
		if !bytes.Equal(got, units[missing]) {
			t.Errorf("reconstruction of unit %d failed", missing)
		}
	}
	// Losing the parity unit itself needs no reconstruction, but verify
	// re-encoding reproduces it.
	if !bytes.Equal(Encode(units...), p) {
		t.Error("re-encode mismatch")
	}
}

func TestReconstructProperty(t *testing.T) {
	// Property: for random stripes of random geometry, dropping any one
	// unit and reconstructing from parity is the identity.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 2 + rng.Intn(6)
		width := 1 + rng.Intn(512)
		units := make([][]byte, d)
		for i := range units {
			units[i] = make([]byte, width)
			rng.Read(units[i])
		}
		p := Encode(units...)
		missing := rng.Intn(d)
		survivors := [][]byte{p}
		for i, u := range units {
			if i != missing {
				survivors = append(survivors, u)
			}
		}
		return bytes.Equal(Reconstruct(survivors...), units[missing])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeInto(t *testing.T) {
	a := []byte{1, 2}
	b := []byte{3, 4}
	dst := []byte{0xff, 0xff} // must be cleared first
	EncodeInto(dst, a, b)
	if !bytes.Equal(dst, Encode(a, b)) {
		t.Errorf("EncodeInto = %x, want %x", dst, Encode(a, b))
	}
}

func BenchmarkXOR64K(b *testing.B) {
	dst := make([]byte, 64<<10)
	src := make([]byte, 64<<10)
	b.SetBytes(64 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		XORInto(dst, src)
	}
}

// benchUnits returns n random 64 KiB units (the default stripe unit).
func benchUnits(n int) [][]byte {
	rng := rand.New(rand.NewSource(3))
	units := make([][]byte, n)
	for i := range units {
		units[i] = make([]byte, 64<<10)
		rng.Read(units[i])
	}
	return units
}

// BenchmarkXORCRCInto is one completed stripe of D data units: bytes
// counted are the D units the fused pass reads, and the only bytes it
// checksums; the parity's CRC is derived from theirs. D = 4 is the 4+1
// stripe of the benchmark's arrays, D = 5 the five images scrub verifies
// (the four-source kernel and one source on the Go path), and D = 3 a
// stripe too narrow for it, all on the Go path. Each runs on the CPU's
// kernel and on the fallback (vector=false).
func BenchmarkXORCRCInto(b *testing.B) {
	tab := crc32.MakeTable(crc32.Castagnoli)
	for _, c := range []struct {
		d   int
		vec bool
	}{{3, vector}, {4, vector}, {5, vector}, {3, false}, {4, false}, {5, false}} {
		b.Run(fmt.Sprintf("D=%d/vector=%t", c.d, c.vec), func(b *testing.B) {
			defer func(v bool) { vector = v }(vector)
			vector = c.vec
			d := c.d
			srcs := benchUnits(d)
			dst := make([]byte, 64<<10)
			crcs := make([]uint32, d+1)
			b.SetBytes(int64(d) * 64 << 10)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clear(crcs)
				XORCRCInto(dst, srcs, crcs, tab)
			}
		})
	}
}

// TestXORCRCMatchesChecksum is XORCRC's property: for D = 1…6 units of
// several lengths, the CRC derived from the units' CRCs equals the CRC of
// their XOR, under both tables the repository uses.
func TestXORCRCMatchesChecksum(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for _, tab := range []*crc32.Table{crc32.MakeTable(crc32.Castagnoli), crc32.IEEETable} {
		for _, l := range append(diffLens, 3*fuseBlock+5, 16<<10) {
			for d := 1; d <= 6; d++ {
				units := offsetSlices(rng, d, l, oddOffs)
				crcs := make([]uint32, d)
				for i, u := range units {
					crcs[i] = crc32.Checksum(u, tab)
				}
				if got, want := XORCRC(crcs, l, tab), crc32.Checksum(refXOR(l, units...), tab); got != want {
					t.Fatalf("len=%d d=%d: XORCRC = %08x, crc of the XOR = %08x", l, d, got, want)
				}
			}
		}
	}
}

// The reference every entry point is compared against: one byte at a
// time, nothing shared with the package's kernel.
func refXOR(width int, units ...[]byte) []byte {
	out := make([]byte, width)
	for _, u := range units {
		for i := range u {
			out[i] ^= u[i]
		}
	}
	return out
}

var diffLens = []int{0, 1, 7, 8, 9, 4095, 4096, 4097, 65536}

// oddOffs starts each operand at a different odd offset of its own
// backing array, so the kernel sees operands that are aligned neither
// absolutely nor with each other.
var oddOffs = []int{1, 3, 5, 7, 9, 11}

// offsetSlices returns n random slices of length l, slice i starting at
// byte offs[i%len(offs)] of its own backing array.
func offsetSlices(rng *rand.Rand, n, l int, offs []int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		off := offs[i%len(offs)]
		back := make([]byte, off+l+3)
		rng.Read(back)
		out[i] = back[off : off+l : off+l]
	}
	return out
}

// TestEntryPointsMatchBytewiseReference covers Encode, EncodeInto,
// Reconstruct and XORInto; TestXORCRCIntoMatchesBytewiseReference covers
// XORCRCInto.
func TestEntryPointsMatchBytewiseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, l := range diffLens {
		for d := 0; d <= 5; d++ {
			units := offsetSlices(rng, d, l, oddOffs)
			want := refXOR(l, units...)

			if d > 0 {
				if got := Encode(units...); !bytes.Equal(got, want) {
					t.Fatalf("len=%d d=%d: Encode differs", l, d)
				}
				if got := Reconstruct(units...); !bytes.Equal(got, want) {
					t.Fatalf("len=%d d=%d: Reconstruct differs", l, d)
				}
			}

			dst := offsetSlices(rng, 1, l, oddOffs)[0] // stale content must not leak
			EncodeInto(dst, units...)
			if !bytes.Equal(dst, want) {
				t.Fatalf("len=%d d=%d: EncodeInto differs", l, d)
			}

			if d > 0 {
				// dst aliasing the first source exactly.
				acc := append([]byte(nil), units[0]...)
				for _, u := range units[1:] {
					XORInto(acc, u)
				}
				if !bytes.Equal(acc, want) {
					t.Fatalf("len=%d d=%d: XORInto chain differs", l, d)
				}
				alias := append([][]byte{append([]byte(nil), units[0]...)}, units[1:]...)
				EncodeInto(alias[0], alias...)
				if !bytes.Equal(alias[0], want) {
					t.Fatalf("len=%d d=%d: EncodeInto with dst == units[0] differs", l, d)
				}
			}
		}
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	b := func(n int) []byte { return make([]byte, n) }
	for name, fn := range map[string]func(){
		"XORInto-short-src":      func() { XORInto(b(8), b(7)) },
		"XORInto-long-src":       func() { XORInto(b(8), b(9)) },
		"Encode-second-unit":     func() { Encode(b(8), b(8), b(4)) },
		"EncodeInto-single-unit": func() { EncodeInto(b(8), b(9)) },
		"EncodeInto-dst":         func() { EncodeInto(b(4), b(8), b(8)) },
		"Reconstruct":            func() { Reconstruct(b(8), b(9)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestXORCRCIntoPanics(t *testing.T) {
	tab := crc32.MakeTable(crc32.Castagnoli)
	for name, fn := range map[string]func(){
		"crc-slots": func() { XORCRCInto(make([]byte, 8), [][]byte{make([]byte, 8)}, make([]uint32, 1), tab) },
		"length":    func() { XORCRCInto(make([]byte, 8), [][]byte{make([]byte, 4)}, make([]uint32, 2), tab) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// refCRC is the bytewise CRC32 reference: one table lookup per byte, none
// of hash/crc32's slicing or hardware paths, nor the package's kernel.
func refCRC(tab *crc32.Table, p []byte) uint32 {
	c := ^uint32(0)
	for _, b := range p {
		c = tab[byte(c)^b] ^ c>>8
	}
	return ^c
}

// checkXORCRCInto runs XORCRCInto over units (each one starting at its own
// offset) into a fresh dst holding stale bytes, or into units[0] itself
// when alias, and compares the parity and every CRC with the bytewise
// references.
func checkXORCRCInto(t *testing.T, tab *crc32.Table, units [][]byte, l int, alias bool) {
	t.Helper()
	want := refXOR(l, units...)
	wantCRC := make([]uint32, 0, len(units)+1)
	for _, u := range units {
		wantCRC = append(wantCRC, refCRC(tab, u))
	}
	wantCRC = append(wantCRC, refCRC(tab, want))
	dst := bytes.Repeat([]byte{0xa5}, l)
	if alias {
		dst = units[0]
	}
	crcs := make([]uint32, len(units)+1)
	XORCRCInto(dst, units, crcs, tab)
	name := fmt.Sprintf("len=%d d=%d alias=%t ieee=%t", l, len(units), alias, tab == crc32.IEEETable)
	if !bytes.Equal(dst, want) {
		t.Fatalf("%s: parity differs", name)
	}
	for i := range crcs {
		if crcs[i] != wantCRC[i] {
			t.Fatalf("%s: crc[%d] = %08x, want %08x", name, i, crcs[i], wantCRC[i])
		}
	}
}

// TestXORCRCIntoMatchesBytewiseReference covers the kernels' whole input
// space against the bytewise references, on both kernels: D = 0…9 (below
// the four-source kernel, and every count beyond it), lengths around the
// 8-byte word, the 256-byte vector step and the 4 KiB block, source
// offsets 0–7, dst apart and dst == srcs[0], and the IEEE table (always
// the Go path) beside Castagnoli.
func TestXORCRCIntoMatchesBytewiseReference(t *testing.T) {
	withKernels(t, testXORCRCIntoMatchesBytewiseReference)
}

func testXORCRCIntoMatchesBytewiseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	lens := append(append([]int(nil), diffLens...), 255, 256, 257, 4104, 8191, 8192, 8193) // diffLens has 64 KiB
	for _, tab := range []*crc32.Table{crc32.MakeTable(crc32.Castagnoli), crc32.IEEETable} {
		for _, l := range lens {
			for d := 0; d <= 9; d++ {
				for off := 0; off < 8; off++ {
					// Every source at offset off; at 7, each at its own.
					offs := []int{off}
					if off == 7 {
						offs = []int{0, 1, 2, 3, 4, 5, 6, 7}
					}
					checkXORCRCInto(t, tab, offsetSlices(rng, d, l, offs), l, false)
					if d > 0 && off%4 == 0 {
						checkXORCRCInto(t, tab, offsetSlices(rng, d, l, offs), l, true)
					}
				}
			}
		}
	}
}

// FuzzXORCRCInto decodes a stripe from the fuzzer's bytes, and checks it
// on both kernels: data[0] gives
// D (0…9), data[1] the flags (bit 0: dst == srcs[0]; bit 1: IEEE table;
// bit 2: the length's bit 16), data[2:4] the length's low 16 bits (the
// length is capped at 64 KiB + 15), data[4:12] each source's
// offset (low 3 bits), and the rest seeds the contents. The committed
// corpus under testdata/fuzz/FuzzXORCRCInto/ is replayed by go test.
func FuzzXORCRCInto(f *testing.F) {
	f.Add([]byte{4, 0, 0x00, 0x01, 0, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		var hdr [12]byte
		copy(hdr[:], data)
		d := int(hdr[0]) % 10
		alias := hdr[1]&1 != 0 && d > 0
		tab := crc32.MakeTable(crc32.Castagnoli)
		if hdr[1]&2 != 0 {
			tab = crc32.IEEETable
		}
		l := min(int(binary.LittleEndian.Uint16(hdr[2:4]))|int(hdr[1]>>2&1)<<16, 64<<10+15)
		offs := make([]int, 8)
		for i := range offs {
			offs[i] = int(hdr[4+i] & 7)
		}
		seed := int64(crc32.ChecksumIEEE(data))
		withKernels(t, func(t *testing.T) {
			checkXORCRCInto(t, tab, offsetSlices(rand.New(rand.NewSource(seed)), d, l, offs), l, alias)
		})
	})
}
