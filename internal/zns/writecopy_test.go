package zns

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"testing"

	"raizn/internal/vclock"
)

// copyUnclaimed reports whether a write's copy into zone z has chunks no
// goroutine has claimed yet.
func copyUnclaimed(d *Device, z int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, c := range d.copying {
		s := c.cp.state.Load()
		if c.cw && c.cz == z && s&0xffff < s>>16&0xffff {
			return true
		}
	}
	return false
}

// flippedBits counts the bits in which got and want differ.
func flippedBits(got, want []byte) int {
	n := 0
	for i := range got {
		n += bits.OnesCount8(got[i] ^ want[i])
	}
	return n
}

// TestWriteSnapshotSurvivesMutation pins the drain rule from the write side
// (readcopy.go): a write's payload lands in zone memory beside the
// simulation, yet every access to those bytes behaves as if it had landed
// at submit, because the access first finishes the copies in flight that
// touch them. Each case submits a write of pattern A to the start of zone 0
// and, at the same virtual instant, applies one such access; once
// everything has completed, the device must show what the access would
// have made of A written at submit.
//
// Each case runs twice: with GOMAXPROCS=1, where the copier cannot run
// before the test goroutine parks, so the access always comes before the
// copy and a case whose drain is deleted fails every time; and with the
// process's own setting, where the copier races the access.
func TestWriteSnapshotSurvivesMutation(t *testing.T) {
	ss := testConfig().SectorSize
	cases := []struct {
		name    string
		cfg     func(*Config)
		n       int // sectors of A (8 when 0)
		wantErr error
		// access runs right after A is submitted and returns the check to
		// run once A has completed.
		access func(t *testing.T, d *Device, a []byte) func()
	}{
		// A takes longer than the read: the read completes — and copies —
		// first.
		{name: "read", n: 32, access: func(t *testing.T, d *Device, a []byte) func() {
			buf := make([]byte, 4*ss)
			fut := d.Read(0, buf)
			var writing bool
			fut.Subscribe(func(error) {
				d.mu.Lock()
				writing = d.zones[0].wcopies > 0
				d.mu.Unlock()
			})
			return func() {
				mustWait(t, "read", fut)
				if !writing {
					t.Fatal("the write completed before the read: the case would prove nothing")
				}
				if !bytes.Equal(buf, a[:len(buf)]) {
					t.Error("a read submitted after the write missed its bytes")
				}
			}
		}},
		{name: "reset-then-reuse", cfg: func(c *Config) { c.ZRWASectors = 8 }, access: func(t *testing.T, d *Device, a []byte) func() {
			old := &d.zones[0].data[0]
			d.ResetZone(0)
			// A ZRWA write copies at submit: zone 1 holds b at once, in the
			// buffer A's copy targeted.
			b := pattern(d.cfg, 2, 0x3C)
			fut := d.Write(d.ZoneStart(1), b, ZRWA)
			if &d.zones[1].data[0] != old {
				t.Fatal("zone 1 did not take the recycled buffer: the case would prove nothing")
			}
			return func() {
				mustWait(t, "zrwa write", fut)
				if got := mustRead(t, d, d.ZoneStart(1), 2); !bytes.Equal(got, b) {
					t.Error("the reset zone's write landed in the zone that took its buffer")
				}
			}
		}},
		// The rewrite is shorter than A: it completes first.
		{name: "power-loss-then-rewrite", wantErr: ErrPowerLoss, access: func(t *testing.T, d *Device, a []byte) func() {
			d.PowerLoss(nil) // A was never flushed: the cut is at 0
			b := pattern(d.cfg, 1, 0x3C)
			fut := d.Write(0, b, 0)
			return func() {
				mustWait(t, "rewrite", fut)
				if got := mustRead(t, d, 0, 1); !bytes.Equal(got, b) {
					t.Error("the voided write's bytes replaced the rewrite's")
				}
			}
		}},
		{name: "power-loss-at-then-rewrite", wantErr: ErrPowerLoss, access: func(t *testing.T, d *Device, a []byte) func() {
			d.PowerLossAt(map[int]int64{0: 1})
			b := pattern(d.cfg, 1, 0x3C)
			fut := d.Write(1, b, 0)
			return func() {
				mustWait(t, "rewrite", fut)
				want := append(bytes.Clone(a[:ss]), b...)
				if got := mustRead(t, d, 0, 2); !bytes.Equal(got, want) {
					t.Error("the surviving sector or the rewrite does not read back")
				}
			}
		}},
		{name: "corrupt-sector", access: func(t *testing.T, d *Device, a []byte) func() {
			if err := d.CorruptSector(1); err != nil {
				t.Fatal(err)
			}
			return func() {
				got := mustRead(t, d, 0, len(a)/ss)
				if flippedBits(got[ss:2*ss], a[ss:2*ss]) != 1 || !bytes.Equal(got[:ss], a[:ss]) || !bytes.Equal(got[2*ss:], a[2*ss:]) {
					t.Error("want A with one bit of sector 1 flipped")
				}
			}
		}},
		{name: "zrwa-overwrite", cfg: func(c *Config) { c.ZRWASectors = 8 }, n: 4, access: func(t *testing.T, d *Device, a []byte) func() {
			c := pattern(d.cfg, 2, 0x77)
			fut := d.Write(1, c, ZRWA)
			return func() {
				mustWait(t, "zrwa write", fut)
				want := append(append(bytes.Clone(a[:ss]), c...), a[3*ss:]...)
				if got := mustRead(t, d, 0, 4); !bytes.Equal(got, want) {
					t.Error("the write's copy landed over the in-place overwrite")
				}
			}
		}},
		{name: "crash-clone", access: func(t *testing.T, d *Device, a []byte) func() {
			cl := d.CrashClone(nil, nil, map[int]int64{0: int64(len(a) / ss)})
			return func() {
				if got := mustRead(t, cl, 0, len(a)/ss); !bytes.Equal(got, a) {
					t.Error("the clone lacks the write's bytes")
				}
			}
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
				n := tc.n
				if n == 0 {
					n = 8
				}
				run(t, cfg, func(_ *vclock.Clock, d *Device) {
					a := pattern(cfg, n, 0xA5)
					fut := d.Write(0, a, 0)
					if procs == 1 && !copyUnclaimed(d, 0) {
						t.Fatal("the copy started before the access: the case would prove nothing")
					}
					check := tc.access(t, d, a)
					if fut.Done() {
						t.Fatal("the write completed at submit: the case would prove nothing")
					}
					if err := fut.Wait(); !errors.Is(err, tc.wantErr) {
						t.Fatalf("write: %v, want %v", err, tc.wantErr)
					}
					check()
				})
			})
		}
	}
}
