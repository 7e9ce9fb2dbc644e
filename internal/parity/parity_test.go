package parity

import (
	"bytes"
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

// BenchmarkXORCRCInto is one completed 4+1 stripe: bytes counted are the
// four data units the fused pass reads, and the only bytes it checksums;
// the parity's CRC is derived from theirs.
func BenchmarkXORCRCInto(b *testing.B) {
	tab := crc32.MakeTable(crc32.Castagnoli)
	srcs := benchUnits(4)
	dst := make([]byte, 64<<10)
	crcs := make([]uint32, 5)
	b.SetBytes(4 * 64 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(crcs)
		XORCRCInto(dst, srcs, crcs, tab)
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
				units := oddSlices(rng, d, l)
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

// oddSlices returns n random slices of length l, each starting at a
// different odd offset of its own backing array, so the kernel sees
// operands that are aligned neither absolutely nor with each other.
func oddSlices(rng *rand.Rand, n, l int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		off := 1 + 2*i
		back := make([]byte, off+l+3)
		rng.Read(back)
		out[i] = back[off : off+l : off+l]
	}
	return out
}

func TestEntryPointsMatchBytewiseReference(t *testing.T) {
	tab := crc32.MakeTable(crc32.Castagnoli)
	rng := rand.New(rand.NewSource(16))
	for _, l := range diffLens {
		for d := 0; d <= 5; d++ {
			units := oddSlices(rng, d, l)
			want := refXOR(l, units...)

			if d > 0 {
				if got := Encode(units...); !bytes.Equal(got, want) {
					t.Fatalf("len=%d d=%d: Encode differs", l, d)
				}
				if got := Reconstruct(units...); !bytes.Equal(got, want) {
					t.Fatalf("len=%d d=%d: Reconstruct differs", l, d)
				}
			}

			dst := oddSlices(rng, 1, l)[0] // stale content must not leak
			EncodeInto(dst, units...)
			if !bytes.Equal(dst, want) {
				t.Fatalf("len=%d d=%d: EncodeInto differs", l, d)
			}

			dst = oddSlices(rng, 1, l)[0]
			crcs := make([]uint32, d+1)
			XORCRCInto(dst, units, crcs, tab)
			if !bytes.Equal(dst, want) {
				t.Fatalf("len=%d d=%d: XORCRCInto parity differs", l, d)
			}
			for i, u := range append(units[:d:d], want) {
				if crcs[i] != crc32.Checksum(u, tab) {
					t.Fatalf("len=%d d=%d: XORCRCInto crc[%d] differs", l, d, i)
				}
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
