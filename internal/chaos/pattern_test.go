package chaos

import (
	"bytes"
	"testing"
)

// fillPatternBytewise is fillPattern's definition, one byte at a time.
func fillPatternBytewise(buf []byte, lba int64, gen int, ss int) {
	g := byte(gen*131 + 17)
	for i := range buf {
		sec := lba + int64(i/ss)
		buf[i] = byte(sec) ^ byte(sec>>8) ^ byte(i%ss) ^ g
	}
}

// TestFillPatternMatchesBytewise compares the per-sector fill with the
// bytewise definition over whole and torn sectors, several generations,
// LBAs on both sides of a 256-sector boundary and two sector sizes.
func TestFillPatternMatchesBytewise(t *testing.T) {
	for _, ss := range []int{512, 4096} {
		for _, n := range []int{0, 1, 7, ss - 1, ss, ss + 1, 3*ss + 5, 17 * ss} {
			for _, gen := range []int{0, 1, 2, 255} {
				for _, lba := range []int64{0, 3, 255, 65530, 1 << 20} {
					got, want := make([]byte, n), make([]byte, n)
					fillPattern(got, lba, gen, ss)
					fillPatternBytewise(want, lba, gen, ss)
					if !bytes.Equal(got, want) {
						t.Fatalf("ss=%d len=%d gen=%d lba=%d: fill differs from the bytewise definition", ss, n, gen, lba)
					}
				}
			}
		}
	}
}
