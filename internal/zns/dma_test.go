package zns

import (
	"bytes"
	"fmt"
	"testing"
)

// dmaJunk is what a destination holds before a copy, so a byte the copy
// skips or a zero it fails to write shows.
const dmaJunk = 0xA5

// dmaPattern is n payload bytes, none of them zero, so a byte cleared in
// place of a copy shows too.
func dmaPattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7+i>>8) | 1
	}
	return b
}

// TestDMACopyMatchesCopy is dmaCopy against copy at every destination and
// source offset 0–63, so every head length and source alignment, for
// lengths around the 64-byte step of the streaming loop and the chunk
// sizes; each side in turn is 7 bytes longer than the other. Then fill
// into zone memory against its definition: payloads of 1–4 segments cut
// unevenly, a tail that must read as zeroes, filled in two calls split
// mid-segment as two chunks of a job are.
func TestDMACopyMatchesCopy(t *testing.T) {
	lens := []int{0, 1, 15, 16, 17, 63, 64, 65, 4096, 16<<10 - 1, 16 << 10, 16<<10 + 1, 64 << 10}
	const slack, guard = 7, 64
	size := 64 + 64<<10 + slack + guard
	src, junk := dmaPattern(size), bytes.Repeat([]byte{dmaJunk}, size)
	got, want := make([]byte, size), make([]byte, size)
	for _, n := range lens {
		for do := 0; do < 64; do++ {
			for so := 0; so < 64; so++ {
				dl, sl := n, n+slack
				if (do+so)&1 != 0 {
					dl, sl = sl, dl
				}
				w := do + dl + guard
				copy(got[:w], junk)
				copy(want[:w], junk)
				gn := dmaCopy(got[do:do+dl], src[so:so+sl])
				wn := copy(want[do:do+dl], src[so:so+sl])
				if gn != wn || !bytes.Equal(got[:w], want[:w]) {
					t.Fatalf("len %d (dst %d, src %d) dst+%d src+%d: %s", n, dl, sl, do, so, dmaDiff(got[:w], want[:w], gn, wn))
				}
			}
		}
	}
	for _, n := range lens[1:] {
		for k := 1; k <= 4; k++ {
			for do := 0; do < 64; do++ {
				segs := make([]int, 0, k)
				for i, left := 0, n; i < k && left > 0; i++ {
					l := left
					if i < k-1 {
						l = min(left, 1+(left*(i+1)+do)/(k+1))
					}
					segs, left = append(segs, l), left-l
				}
				checkDMAFill(t, do, (do*37)%64, segs, 1+do%33, n/2+do%5)
			}
		}
	}
}

// checkDMAFill fills a window at byte offset dOff of a junk buffer from
// payload segments of the lengths in segs, cut in order from a pattern at
// byte offset sOff, followed by tail bytes that must read as zeroes. fill
// runs twice, over [0, mid) and [mid, end), as two chunks of a job do.
// Outside the window nothing may change.
func checkDMAFill(t *testing.T, dOff, sOff int, segs []int, tail, mid int) {
	t.Helper()
	total := 0
	for _, l := range segs {
		total += l
	}
	pat := dmaPattern(sOff + total)
	src := make([][]byte, len(segs))
	for i, p := 0, sOff; i < len(segs); p, i = p+segs[i], i+1 {
		src[i] = pat[p : p+segs[i]]
	}
	end := total + tail
	mid = min(mid, end)
	got := bytes.Repeat([]byte{dmaJunk}, dOff+end+64)
	want := bytes.Clone(got)
	dst := got[dOff : dOff+end]
	fill(dst, src, 0, mid, true)
	fill(dst, src, mid, end, true)
	copy(want[dOff:], pat[sOff:])
	clear(want[dOff+total : dOff+end])
	if !bytes.Equal(got, want) {
		t.Fatalf("segments %v + tail %d at dst+%d src+%d, split at %d: %s", segs, tail, dOff, sOff, mid, dmaDiff(got, want, 0, 0))
	}
}

func dmaDiff(got, want []byte, gn, wn int) string {
	if gn != wn {
		return fmt.Sprintf("copied %d bytes, copy copies %d", gn, wn)
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("byte %d is %#x, want %#x", i, got[i], want[i])
		}
	}
	return "equal"
}

// FuzzDMACopy runs checkDMAFill on layouts decoded from the fuzzer's bytes:
// destination and source offsets (0–63), a payload of up to 64 KiB cut
// into 1–4 segments, a zero tail and the split between the two fills.
// Tier-1 replays the committed corpus under testdata/fuzz/FuzzDMACopy/.
func FuzzDMACopy(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 7 {
			return
		}
		n := 1 + (int(in[2])<<8|int(in[3]))%(64<<10)
		segs, cuts := []int{}, in[7:]
		for left := n; left > 0; {
			l := left
			if len(segs) < 3 && len(segs) < len(cuts) {
				l = min(left, 1+int(cuts[len(segs)])*n/256)
			}
			segs, left = append(segs, l), left-l
		}
		checkDMAFill(t, int(in[0]&63), int(in[1]&63), segs, int(in[4]), (int(in[5])<<8|int(in[6]))%(n+int(in[4])+1))
	})
}

// BenchmarkDMACopy copies 16 and 64 KiB chunks into a region larger than
// the last-level cache, walked in order so every destination line is cold,
// with copy (memmove) and with dmaCopy. The region holds as many chunks as
// the run copies, up to 512 MiB, and its pages are faulted in before the
// timer starts.
func BenchmarkDMACopy(b *testing.B) {
	const coldBytes = 512 << 20
	var region []byte
	for _, size := range []int{16 << 10, 64 << 10} {
		src := dmaPattern(size)
		for _, k := range []struct {
			name string
			cp   func(dst, src []byte) int
		}{
			{"copy", func(dst, src []byte) int { return copy(dst, src) }},
			{"dma", dmaCopy},
		} {
			b.Run(fmt.Sprintf("%s/%dKiB", k.name, size>>10), func(b *testing.B) {
				n := min(b.N, coldBytes/size) * size
				if n > len(region) {
					region = make([]byte, n)
					for i := 0; i < n; i += 4096 {
						region[i] = 1
					}
				}
				b.SetBytes(int64(size))
				b.ResetTimer()
				for i, off := 0, 0; i < b.N; i, off = i+1, off+size {
					if off+size > n {
						off = 0
					}
					k.cp(region[off:off+size], src)
				}
			})
		}
	}
}
