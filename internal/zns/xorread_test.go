package zns

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"raizn/internal/vclock"
)

// starveCopier makes the copier miss every job offered until the test
// ends: sendCopy offers them on a channel nobody reads, so the drains and
// the completions do every copy, whatever GOMAXPROCS is.
func starveCopier(t *testing.T) {
	old := copyJobs
	copyJobs = make(chan copyRef, cap(old))
	t.Cleanup(func() { copyJobs = old })
}

// xorUnclaimed reports whether x's sealed job has chunks no goroutine has
// claimed yet.
func xorUnclaimed(x *XORRead) bool {
	s := x.job.state.Load()
	return s&0xffff < s>>16&0xffff
}

// xorAt returns dst with b XORed in at byte offset at.
func xorAt(dst []byte, at int, b []byte) []byte {
	for i := range b {
		dst[at+i] ^= b[i]
	}
	return dst
}

// TestXORReadSurvivesMutation pins the drain rule for reconstruction reads
// (readcopy.go, XORRead). Zone 0 of three devices holds A0, A1 and A2, A2
// a sector short; one reconstruction starts from the owner's P in dst (or
// from zeroes, dst holding junk), XORs in reads of A0 and A1 at offset 0
// and of A2 one sector in (a term that ends before dst does), and folds F
// in at sector 3. At the same virtual instant one mutator changes device
// 1's zone 0, once before Seal (the drain XORs A1's term in at once) and
// once after (the drain finishes the job). Once the reads complete dst
// must be P ^ A0 ^ A1 ^ A2 ^ F as of their submit, and a fresh read of
// device 1 shows that the mutation did happen.
//
// Each case runs with GOMAXPROCS=1, where the copier cannot run before the
// test goroutine parks; with the process's own setting, where it races the
// mutation; and with the copier starved, where it takes no job at all. In
// the first and the last a case fails if its mutator's drain is deleted
// (crash-clone excepted: a clone leaves the source's bytes alone), and the
// closing reconstruction of devices 0 and 2, which no mutator drains,
// fails in the starved run if command.Notify stops finishing the job.
func TestXORReadSurvivesMutation(t *testing.T) {
	const n = 8 // sectors of A0 and A1: two copy chunks
	zrwa := func(c *Config) { c.ZRWASectors = 8 }
	cases := []struct {
		name string
		cfg  func(*Config)
		// mutate changes device 1's zone 0 and returns what a fresh read
		// of its [0, n) must show afterwards (nil: no longer A1) and any
		// further check to run once the reconstruction has completed.
		mutate  func(t *testing.T, d *Device, a []byte) ([]byte, func())
		wantErr error // device 1's reconstruction read's own outcome
	}{
		{name: "reset-then-reuse", cfg: zrwa, mutate: func(t *testing.T, d *Device, a []byte) ([]byte, func()) {
			old := &d.zones[0].data[0]
			d.ResetZone(0)
			// Takes zone 0's buffer and fills it at submit.
			d.Write(d.ZoneStart(1), pattern(d.cfg, n, 0x3C), ZRWA)
			if &d.zones[1].data[0] != old {
				t.Fatal("zone 1 did not take the recycled buffer: the case would prove nothing")
			}
			return nil, nil
		}},
		{name: "corrupt-sector", mutate: func(t *testing.T, d *Device, a []byte) ([]byte, func()) {
			if err := d.CorruptSector(1); err != nil {
				t.Fatal(err)
			}
			return nil, nil
		}},
		{name: "power-loss-then-rewrite", wantErr: ErrPowerLoss, mutate: func(t *testing.T, d *Device, a []byte) ([]byte, func()) {
			d.PowerLoss(nil) // A1 was never flushed: the cut is at 0
			b := pattern(d.cfg, n, 0x3C)
			d.Write(0, b, 0)
			return b, nil
		}},
		{name: "power-loss-at-then-rewrite", wantErr: ErrPowerLoss, mutate: func(t *testing.T, d *Device, a []byte) ([]byte, func()) {
			d.PowerLossAt(map[int]int64{0: 1})
			b := pattern(d.cfg, n-1, 0x3C)
			d.Write(1, b, 0)
			return append(bytes.Clone(a[:d.cfg.SectorSize]), b...), nil
		}},
		{name: "zrwa-overwrite", cfg: zrwa, mutate: func(t *testing.T, d *Device, a []byte) ([]byte, func()) {
			c := pattern(d.cfg, 2, 0x77)
			d.Write(5, c, ZRWA)
			ss := d.cfg.SectorSize
			return append(append(bytes.Clone(a[:5*ss]), c...), a[7*ss:]...), nil
		}},
		{name: "crash-clone", mutate: func(t *testing.T, d *Device, a []byte) ([]byte, func()) {
			cl := d.CrashClone(nil, nil, map[int]int64{0: n})
			return a, func() {
				if got := mustRead(t, cl, 0, n); !bytes.Equal(got, a) {
					t.Error("the clone lacks device 1's bytes")
				}
			}
		}},
	}
	for _, mode := range []string{"procs=1", "procs=0", "starved"} {
		for _, sealFirst := range []bool{false, true} {
			for _, zero := range []bool{false, true} {
				for _, tc := range cases {
					when, from := "before-seal", "parity"
					if sealFirst {
						when = "after-seal"
					}
					if zero {
						from = "zero"
					}
					t.Run(fmt.Sprintf("%s/%s/%s/%s", tc.name, when, from, mode), func(t *testing.T) {
						switch mode {
						case "procs=1":
							defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
						case "starved":
							starveCopier(t)
						}
						cfg := testConfig()
						if tc.cfg != nil {
							tc.cfg(&cfg)
						}
						runXORCase(t, cfg, n, sealFirst, zero, mode != "procs=0", tc.mutate, tc.wantErr)
					})
				}
			}
		}
	}
}

func runXORCase(t *testing.T, cfg Config, n int, sealFirst, zero, pinned bool,
	mutate func(*testing.T, *Device, []byte) ([]byte, func()), wantErr error) {
	ss := cfg.SectorSize
	c := vclock.New()
	devs := []*Device{NewDevice(c, cfg), NewDevice(c, cfg), NewDevice(c, cfg)}
	c.Run(func() {
		a := [][]byte{pattern(cfg, n, 0xA5), pattern(cfg, n, 0x5A), pattern(cfg, n-1, 0xC3)}
		at := []int{0, 0, ss}
		for i, d := range devs {
			mustWrite(t, d, 0, a[i], 0)
		}
		p, f := pattern(cfg, n, 0x11), pattern(cfg, 1, 0x99)
		dst := bytes.Clone(p)
		if zero {
			p = make([]byte, len(p)) // dst's junk counts as zeroes
		}
		want := xorAt(xorAt(xorAt(xorAt(bytes.Clone(p), 0, a[0]), 0, a[1]), ss, a[2]), 3*ss, f)

		var x XORRead
		x.Start(dst, zero)
		futs := make([]*vclock.Future, len(devs))
		for i, d := range devs {
			futs[i] = d.ReadXORSpan(nil, nil, 0, &x, at[i], len(a[i]))
		}
		var after []byte
		var check func()
		if sealFirst {
			x.Fold(3*ss, f)
			x.Seal()
			if pinned && !xorUnclaimed(&x) {
				t.Fatal("the job started before the mutation: the case would prove nothing")
			}
			after, check = mutate(t, devs[1], a[1])
		} else {
			after, check = mutate(t, devs[1], a[1])
			x.Fold(3*ss, f)
			x.Seal()
		}
		for i, fut := range futs {
			if fut.Done() {
				t.Fatalf("device %d's read completed before the mutation: the case would prove nothing", i)
			}
		}
		for i, fut := range futs {
			want := error(nil)
			if i == 1 {
				want = wantErr
			}
			if err := fut.Wait(); !errors.Is(err, want) {
				t.Fatalf("device %d's read: %v, want %v", i, err, want)
			}
		}
		if !bytes.Equal(dst, want) {
			t.Fatal("the reconstruction XORed in bytes from after its reads' submit")
		}
		if check != nil {
			check()
		}

		got := make([]byte, n*ss)
		err := devs[1].Read(0, got).Wait()
		switch {
		case after == nil && err == nil && bytes.Equal(got, a[1]):
			t.Fatal("a fresh read still shows A1: the mutator changed nothing")
		case after != nil && (err != nil || !bytes.Equal(got, after)):
			t.Fatalf("a fresh read (err %v) does not show the mutator's bytes", err)
		}

		// Nothing drains this one: its completions finish it. From
		// zeroes, A2's term comes first and leaves sector 0 to be cleared.
		dst = bytes.Repeat([]byte{0xEE}, len(p))
		x.Start(dst, true)
		futs = futs[:0]
		for _, i := range []int{2, 0} {
			futs = append(futs, devs[i].ReadXORSpan(nil, nil, 0, &x, at[i], len(a[i])))
		}
		x.Seal()
		if err := vclock.WaitAll(futs...); err != nil {
			t.Fatal(err)
		}
		if want := xorAt(xorAt(make([]byte, len(p)), 0, a[0]), ss, a[2]); !bytes.Equal(dst, want) {
			t.Fatal("an undrained reconstruction came back unfinished")
		}
	})
}

// TestXORReadWithoutDeviceRead pins the empty reconstruction: a job whose
// owner seals it without having issued a read (an open stripe whose lost
// unit alone is written) is not offered to the copier, so the owner may
// start the next one at once. Offered, a job the copier still held when
// x was re-armed would be XORed into the next reconstruction's buffer.
func TestXORReadWithoutDeviceRead(t *testing.T) {
	cfg := testConfig()
	run(t, cfg, func(_ *vclock.Clock, d *Device) {
		a := pattern(cfg, 4, 0xA5)
		mustWrite(t, d, 0, a, 0)
		p := pattern(cfg, 4, 0x11)
		var x XORRead
		for i := 0; i < 200; i++ {
			// Rounds alternate between no read and one, and in pairs
			// between starting from dst's content and from zeroes.
			zero := i%4 >= 2
			first := p
			if zero {
				first = make([]byte, len(p))
			}
			dst := bytes.Clone(p)
			x.Start(dst, zero)
			if i%2 == 0 {
				x.Seal() // no read: dst is the result
				if !bytes.Equal(dst, first) {
					t.Fatalf("round %d: an empty reconstruction came back wrong", i)
				}
				continue
			}
			fut := d.ReadXORSpan(nil, nil, 0, &x, 0, len(a))
			x.Seal()
			mustWait(t, "xor read", fut)
			if want := xorAt(bytes.Clone(first), 0, a); !bytes.Equal(dst, want) {
				t.Fatalf("round %d: wrong reconstruction", i)
			}
		}
	})
}

// xorLayout is one reconstruction job's terms over a dst of n bytes, with
// junk in dst that must not leak through when zero is set. A nil term was
// XORed in before Seal and covers nothing.
type xorLayout struct {
	n, chunk int
	zero     bool
	src      [][]byte
	at       []int
}

// checkXORTerms runs xorTerms over l chunk by chunk and compares dst with
// the bytewise definition: dst (or zeroes) XORed with every term at its
// offset.
func checkXORTerms(t *testing.T, l xorLayout, rng *rand.Rand) {
	t.Helper()
	dst := make([]byte, l.n)
	rng.Read(dst)
	want := bytes.Clone(dst)
	if l.zero {
		clear(want)
	}
	for i, s := range l.src {
		xorAt(want, l.at[i], s)
	}
	for lo := 0; lo < l.n; lo += l.chunk {
		xorTerms(dst, l.src, l.at, lo, min(lo+l.chunk, l.n), l.zero)
	}
	if !bytes.Equal(dst, want) {
		i := 0
		for dst[i] == want[i] {
			i++
		}
		t.Fatalf("n=%d chunk=%d zero=%v at=%v lens=%v: byte %d is %#x, want %#x",
			l.n, l.chunk, l.zero, l.at, termLens(l.src), i, dst[i], want[i])
	}
}

// termLens lists the terms' lengths, -1 for a released term.
func termLens(src [][]byte) []int {
	out := make([]int, len(src))
	for i, s := range src {
		out[i] = len(s)
		if s == nil {
			out[i] = -1
		}
	}
	return out
}

// add appends to l a term of n bytes at offset at, each term at an
// odd offset of its own backing array; nil when released is set.
func (l *xorLayout) add(rng *rand.Rand, at, n int, released bool) {
	var s []byte
	if !released {
		back := make([]byte, n+1+2*len(l.src))
		rng.Read(back)
		s = back[1+2*len(l.src):]
	}
	l.src, l.at = append(l.src, s), append(l.at, at)
}

// TestXORTermsMatchesReference checks a reconstruction job's XOR, chunk by
// chunk, against its bytewise definition over random layouts of 1 to 6
// terms: terms that start inside a chunk, end before dst does, cover
// nothing (released before Seal), or overlap in every way, over dst's
// content and over zeroes.
func TestXORTermsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for round := 0; round < 2000; round++ {
		l := xorLayout{n: 1 + rng.Intn(3*copyChunk), zero: rng.Intn(2) == 0}
		l.chunk = []int{copyChunk, 1 + rng.Intn(l.n), 4096}[rng.Intn(3)]
		for k := 1 + rng.Intn(6); len(l.src) < k; {
			at := 0
			if rng.Intn(3) > 0 {
				at = rng.Intn(l.n)
			}
			n := l.n - at
			if rng.Intn(3) == 0 {
				n = rng.Intn(n + 1)
			}
			l.add(rng, at, n, rng.Intn(6) == 0)
		}
		checkXORTerms(t, l, rng)
	}
}

// FuzzXORTerms decodes its input into a layout checked as in
// TestXORTermsMatchesReference: two bytes of dst length (at most 64 KiB),
// one of flags (bit 1: zero; bit 0: use the chunk size in the next two
// bytes, else copyChunk), then three bytes per term, at most six: its
// offset and length as fractions of what dst has room for, and 0xff to
// have it released. Its seeds are the committed corpus in
// testdata/fuzz/FuzzXORTerms.
func FuzzXORTerms(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 5 {
			return
		}
		l := xorLayout{n: 1 + (int(in[0])<<8 | int(in[1])), zero: in[2]&2 != 0, chunk: copyChunk}
		if in[2]&1 != 0 {
			l.chunk = 1 + (int(in[3])<<8|int(in[4]))%l.n
		}
		rng := rand.New(rand.NewSource(int64(len(in))))
		for in = in[5:]; len(in) >= 3 && len(l.src) < 6; in = in[3:] {
			at := int(in[0]) * l.n / 256
			l.add(rng, at, int(in[1]&0x7f)*(l.n-at)/127, in[2] == 0xff)
		}
		if len(l.src) > 0 {
			checkXORTerms(t, l, rng)
		}
	})
}
