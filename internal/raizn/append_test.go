package raizn

import (
	"bytes"
	"errors"
	"sort"
	"testing"

	"raizn/internal/vclock"
	"raizn/internal/zns"
)

func TestAppendAssignsSequentialLBAs(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		lba1, err := v.Append(0, lbaPattern(v, 0, 8), 0)
		if err != nil {
			t.Fatal(err)
		}
		lba2, err := v.Append(0, lbaPattern(v, 8, 8), 0)
		if err != nil {
			t.Fatal(err)
		}
		if lba1 != 0 || lba2 != 8 {
			t.Errorf("assigned LBAs %d, %d; want 0, 8", lba1, lba2)
		}
		checkReadV(t, v, 0, 16)
	})
}

// TestConcurrentAppendsSerialize races 16 appenders on one zone with sizes
// that, in whatever order they land, start, complete and span stripes
// (64 sectors here). The appends must tile the zone's prefix, read back
// what each wrote, before and after a flush and a power cut, and leave the
// zone with its stripe buffers all accounted for and at most one partial
// stripe buffered.
func TestConcurrentAppendsSerialize(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		sizes := []int64{4, 8, 64, 12, 70, 20, 4, 36, 64, 8, 100, 4, 16, 28, 4, 60}
		// Each appender writes the pattern of its own base address, so a
		// misplaced or torn append reads back as a mismatch.
		pattern := func(i int) []byte { return lbaPattern(v, int64(i+1)*1000, int(sizes[i])) }
		wg := c.NewWaitGroup()
		lbas := make([]int64, len(sizes))
		for i := range sizes {
			i := i
			wg.Add(1)
			c.Go(func() {
				defer wg.Done()
				lba, fut := v.SubmitAppend(1, pattern(i), 0)
				if err := fut.Wait(); err != nil {
					t.Errorf("append %d: %v", i, err)
				}
				lbas[i] = lba
			})
		}
		wg.Wait()

		// The assignments tile [zoneStart, zoneStart+total) exactly.
		zs := v.ZoneSectors()
		order := make([]int, len(sizes))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return lbas[order[a]] < lbas[order[b]] })
		next := zs
		for _, i := range order {
			if lbas[i] != next {
				t.Fatalf("append %d (%d sectors) landed at %d, want %d", i, sizes[i], lbas[i], next)
			}
			next += sizes[i]
		}
		total := next - zs
		if wp := v.Zone(1).WP - zs; wp != total {
			t.Errorf("zone WP = %d, want %d", wp, total)
		}

		lz := v.zones[1]
		lz.mu.Lock()
		free, active := len(lz.free), len(lz.active)
		lz.mu.Unlock()
		if free+active != stripeBuffersPerZone || active > 1 {
			t.Errorf("stripe buffers: %d free + %d active, want %d in all and at most 1 active",
				free, active, stripeBuffersPerZone)
		}

		check := func(v *Volume) {
			t.Helper()
			for i, lba := range lbas {
				buf := make([]byte, sizes[i]*int64(v.SectorSize()))
				if err := v.Read(lba, buf); err != nil {
					t.Fatalf("Read(append %d at %d): %v", i, lba, err)
				}
				if !bytes.Equal(buf, pattern(i)) {
					t.Fatalf("append %d at %d: data mismatch", i, lba)
				}
			}
		}
		check(v)
		if err := v.Flush(); err != nil {
			t.Fatal(err)
		}
		for _, d := range devs {
			d.PowerLoss(nil)
		}
		v2 := remount(t, c, devs)
		if wp := v2.Zone(1).WP - zs; wp != total {
			t.Errorf("zone WP after remount = %d, want %d", wp, total)
		}
		check(v2)
	})
}

// TestPlanErrorFailsStop: a write whose plan finds the zone's stripe
// buffers out of step with its write pointer issues nothing and puts the
// volume in read-only mode, as a failed sub-IO does; the zone's write
// pointer stays over written data only.
func TestPlanErrorFailsStop(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 8, 0)
		lz := v.zones[0]
		lz.mu.Lock()
		lz.active[0].fill = 5
		lz.mu.Unlock()
		if err := v.Write(8, lbaPattern(v, 8, 8), 0); !errors.Is(err, ErrInconsistent) {
			t.Fatalf("write over an out-of-step stripe buffer: %v, want %v", err, ErrInconsistent)
		}
		if !v.ReadOnly() {
			t.Error("volume still writable after a plan error")
		}
		if wp := v.Zone(0).WP; wp != 8 {
			t.Errorf("zone WP = %d after the failed write, want 8", wp)
		}
		checkReadV(t, v, 0, 8)
	})
}

func TestAppendToFullZone(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, int(v.ZoneSectors()), 0)
		if _, err := v.Append(0, make([]byte, v.SectorSize()), 0); err != ErrZoneFull {
			t.Errorf("append to full zone error = %v", err)
		}
	})
}

func TestAppendBeyondCapacityRejected(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, int(v.ZoneSectors())-2, 0)
		if _, err := v.Append(0, make([]byte, 4*v.SectorSize()), 0); err != ErrZoneBoundary {
			t.Errorf("oversized append error = %v", err)
		}
		// An exactly-fitting append succeeds.
		if _, err := v.Append(0, make([]byte, 2*v.SectorSize()), 0); err != nil {
			t.Errorf("fitting append error = %v", err)
		}
	})
}

func TestAppendSurvivesCrash(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		for i := int64(0); i < 10; i++ {
			if _, err := v.Append(0, lbaPattern(v, i*4, 4), 0); err != nil {
				t.Fatal(err)
			}
		}
		v.Flush()
		for _, d := range devs {
			d.PowerLoss(nil)
		}
		v2 := remount(t, c, devs)
		if wp := v2.Zone(0).WP; wp != 40 {
			t.Errorf("WP = %d, want 40", wp)
		}
		checkReadV(t, v2, 0, 40)
	})
}
