package zns

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"raizn/internal/vclock"
)

// TestReadSnapshotSurvivesMutation pins the drain rule (readcopy.go): a
// read returns the bytes below the write pointer at its submit, although
// they reach its buffer later, because every operation that changes or
// recycles such bytes first finishes the copies in flight. Each case
// submits a read of pattern A and, at the same virtual instant, applies one
// mutator; after the read completes the buffer must hold A, and a later
// read shows that the mutation did happen.
//
// Each case runs twice: with GOMAXPROCS=1, where the copier cannot run
// before the test goroutine parks, so the mutation always lands before the
// copy and a case whose drain is deleted fails every time; and with the
// process's own setting, where the copier races the mutation.
func TestReadSnapshotSurvivesMutation(t *testing.T) {
	const n = 4 // sectors of A, the read's span
	cases := []struct {
		name string
		cfg  func(*Config)
		// mutate runs right after the read of [0, n) in zone 0 is
		// submitted, and returns what a fresh read of that span must show
		// afterwards (nil: the span is no longer readable).
		mutate  func(t *testing.T, d *Device, a []byte) []byte
		wantErr error // the snapshot read's own outcome
	}{
		{name: "reset-then-reuse", cfg: func(c *Config) { c.ZRWASectors = 8 }, mutate: func(t *testing.T, d *Device, a []byte) []byte {
			old := &d.zones[0].data[0]
			d.ResetZone(0)
			// Takes zone 0's buffer and, unlike Write, fills it at submit:
			// long before the read completes.
			b := pattern(d.cfg, n, 0x3C)
			d.WriteZRWA(d.ZoneStart(1), b, 0)
			if &d.zones[1].data[0] != old {
				t.Fatal("zone 1 did not take the recycled buffer: the case would prove nothing")
			}
			return nil
		}},
		{name: "power-loss-then-rewrite", wantErr: ErrPowerLoss, mutate: func(t *testing.T, d *Device, a []byte) []byte {
			d.PowerLoss(nil) // A was never flushed: the cut is at 0
			b := pattern(d.cfg, n, 0x3C)
			d.Write(0, b, 0)
			return b
		}},
		{name: "power-loss-at-then-rewrite", wantErr: ErrPowerLoss, mutate: func(t *testing.T, d *Device, a []byte) []byte {
			d.PowerLossAt(map[int]int64{0: 1})
			b := pattern(d.cfg, n, 0x3C)
			d.Write(1, b, 0)
			return append(bytes.Clone(a[:d.cfg.SectorSize]), b[:(n-1)*d.cfg.SectorSize]...)
		}},
		{name: "corrupt-sector", mutate: func(t *testing.T, d *Device, a []byte) []byte {
			if err := d.CorruptSector(1); err != nil {
				t.Fatal(err)
			}
			return nil
		}},
		{name: "bit-rot-on-fua-persist", cfg: func(c *Config) { c.BitRotRate = 1 }, mutate: func(t *testing.T, d *Device, a []byte) []byte {
			// Persisting [0, n+1) rots every sector of it, A included; the
			// FUA write completes before the read does.
			d.Write(n, pattern(d.cfg, 1, 0x3C), FUA)
			return nil
		}},
		{name: "zrwa-overwrite", cfg: func(c *Config) { c.ZRWASectors = 8 }, mutate: func(t *testing.T, d *Device, a []byte) []byte {
			c := pattern(d.cfg, 2, 0x77)
			d.WriteZRWA(1, c, 0)
			ss := d.cfg.SectorSize
			return append(append(append([]byte(nil), a[:ss]...), c...), a[3*ss:]...)
		}},
	}
	for _, procs := range []int{1, 0} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/procs=%d", tc.name, procs), func(t *testing.T) {
				if procs > 0 {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				}
				cfg := testConfig()
				if tc.cfg != nil {
					tc.cfg(&cfg)
				}
				run(t, cfg, func(_ *vclock.Clock, d *Device) {
					a := pattern(cfg, n, 0xA5)
					mustWrite(t, d, 0, a, 0)
					buf := make([]byte, len(a))
					fut := d.Read(0, buf)
					after := tc.mutate(t, d, a)
					if fut.Done() {
						t.Fatal("the read completed before the mutation: the case would prove nothing")
					}
					if err := fut.Wait(); !errors.Is(err, tc.wantErr) {
						t.Fatalf("snapshot read: %v, want %v", err, tc.wantErr)
					}
					if !bytes.Equal(buf, a) {
						t.Fatal("the read returned bytes from after its submit")
					}
					// The mutation took effect: a read now sees its result.
					got := make([]byte, len(a))
					err := d.Read(0, got).Wait()
					switch {
					case after == nil && err == nil && bytes.Equal(got, a):
						t.Fatal("a fresh read still shows A: the mutator changed nothing")
					case after != nil && (err != nil || !bytes.Equal(got, after)):
						t.Fatalf("a fresh read (err %v) does not show the mutator's bytes", err)
					}
				})
			})
		}
	}
}

// TestReadFilledWithCopierStarved starves the copier (GOMAXPROCS=1: it
// cannot run until the test goroutine parks, and the parked goroutine runs
// every completion inline first), so the completions copy everything. Each
// read's sentinel-filled buffer must come back holding every byte of the
// zone: the payload, then zeroes where a finished zone was never written.
func TestReadFilledWithCopierStarved(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := testConfig()
	ss := cfg.SectorSize
	const written = 37 // a finished zone's tail past this reads as zeroes
	a := pattern(cfg, written, 0xA5)
	want := append(bytes.Clone(a), make([]byte, (int(cfg.ZoneCap)-written)*ss)...)
	run(t, cfg, func(_ *vclock.Clock, d *Device) {
		mustWrite(t, d, 0, a, 0)
		mustWait(t, "finish", d.FinishZone(0))
		// Whole zone, then spans starting mid-chunk and straddling the
		// end of the payload.
		spans := [][2]int{{0, int(cfg.ZoneCap)}, {3, 5}, {1, 40}, {33, 15}, {0, 1}}
		bufs := make([][]byte, len(spans))
		futs := make([]*vclock.Future, len(spans))
		for i, s := range spans {
			bufs[i] = bytes.Repeat([]byte{0xEE}, s[1]*ss)
			futs[i] = d.Read(int64(s[0]), bufs[i])
		}
		if err := vclock.WaitAll(futs...); err != nil {
			t.Fatal(err)
		}
		for i, s := range spans {
			if w := want[s[0]*ss : (s[0]+s[1])*ss]; !bytes.Equal(bufs[i], w) {
				j := 0
				for bufs[i][j] == w[j] {
					j++
				}
				t.Errorf("read of [%d, +%d): byte %d is %#x, want %#x", s[0], s[1], j, bufs[i][j], w[j])
			}
		}
	})
}
