package raizn

import (
	"bytes"
	"math/rand"
	"testing"

	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// remount simulates mount-after-reboot over the same devices.
func remount(t *testing.T, c *vclock.Clock, devs []*zns.Device) *Volume {
	t.Helper()
	v, err := Mount(c, devs, DefaultConfig())
	if err != nil {
		t.Fatalf("Mount: %v", err)
	}
	return v
}

func TestMountCleanVolume(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 100, 0)
		zs := v.ZoneSectors()
		mustWriteV(t, v, 2*zs, int(zs), 0) // full zone
		if err := v.Flush(); err != nil {
			t.Fatal(err)
		}
		v2 := remount(t, c, devs)
		if wp := v2.Zone(0).WP; wp != 100 {
			t.Errorf("zone0 WP = %d, want 100", wp)
		}
		if st := v2.Zone(2).State; st != zns.ZoneFull {
			t.Errorf("zone2 state = %v, want full", st)
		}
		checkReadV(t, v2, 0, 100)
		checkReadV(t, v2, 2*zs, int(zs))
	})
}

func TestMountShuffledDeviceOrder(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 200, 0)
		v.Flush()
		shuffled := []*zns.Device{devs[3], devs[0], devs[4], devs[2], devs[1]}
		v2 := remount(t, c, shuffled)
		checkReadV(t, v2, 0, 200)
	})
}

func TestMountAfterAppendContinuesWrites(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 37, 0) // partial stripe tail
		v.Flush()
		v2 := remount(t, c, devs)
		// The rebuilt stripe buffer must let appends continue with
		// correct parity.
		mustWriteV(t, v2, 37, 27, 0) // completes the stripe
		mustWriteV(t, v2, 64, 10, 0)
		v2.Flush()
		v3 := remount(t, c, devs)
		checkReadV(t, v3, 0, 74)
	})
}

func TestCrashLosesNothingFlushed(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 64, 0)
		if err := v.Flush(); err != nil {
			t.Fatal(err)
		}
		mustWriteV(t, v, 64, 64, 0) // unflushed
		for _, d := range devs {
			d.PowerLoss(nil) // keep only flushed data
		}
		v2 := remount(t, c, devs)
		if wp := v2.Zone(0).WP; wp < 64 {
			t.Errorf("flushed data lost: WP = %d", wp)
		}
		checkReadV(t, v2, 0, 64)
	})
}

func TestCrashStripeHoleRepairedByParity(t *testing.T) {
	// A complete stripe (parity written) where one device lost its data
	// unit: recovery must rebuild the missing unit from parity.
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 64, 0) // one full stripe
		// Lose device holding unit 1; everything else persists.
		victim := v.lt.dataDev(0, 0, 1)
		cuts := make(map[*zns.Device]map[int]int64)
		for i, d := range devs {
			m := map[int]int64{}
			for z := 0; z < d.Config().NumZones; z++ {
				zd := d.Zone(z)
				m[z] = zd.WP - d.ZoneStart(z) // persist everything...
			}
			if i == victim {
				m[0] = 0 // ...except the victim's data zone 0
			}
			cuts[d] = m
		}
		for _, d := range devs {
			d.PowerLossAt(cuts[d])
		}
		v2 := remount(t, c, devs)
		if wp := v2.Zone(0).WP; wp != 64 {
			t.Errorf("WP after repair = %d, want 64", wp)
		}
		checkReadV(t, v2, 0, 64)
		// The repaired unit must be back on the victim device itself.
		row := make([]byte, 16*v2.SectorSize())
		if err := devs[victim].Read(0, row).Wait(); err != nil {
			t.Fatalf("victim device read: %v", err)
		}
		if !bytes.Equal(row, lbaPattern(v2, 16, 16)) {
			t.Error("victim device does not hold the reconstructed unit")
		}
	})
}

func TestCrashParityHoleRecomputed(t *testing.T) {
	// Data complete, parity lost: the write hole. Recovery recomputes
	// parity so a later device failure is survivable.
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 128, 0) // two full stripes
		pdev := v.lt.parityDev(0, 0)
		cuts := map[int]int64{0: 16} // parity device zone 0: keep only stripe 0's slot? no:
		// stripe 0's unit on pdev is parity at [0,16); stripe 1 data on
		// pdev at [16,32). Cut at 0 loses both.
		_ = cuts
		for i, d := range devs {
			m := map[int]int64{}
			for z := 0; z < d.Config().NumZones; z++ {
				zd := d.Zone(z)
				m[z] = zd.WP - d.ZoneStart(z)
			}
			if i == pdev {
				m[0] = 0
			}
			d.PowerLossAt(m)
		}
		v2 := remount(t, c, devs)
		checkReadV(t, v2, 0, 128)
		// Parity must have been rewritten: fail another device and read
		// through reconstruction.
		victim := v2.lt.dataDev(0, 0, 0)
		v2.FailDevice(victim)
		checkReadV(t, v2, 0, 128)
	})
}

func TestCrashUnrecoverableHoleTruncatesAndRelocates(t *testing.T) {
	// Figure 1's scenario: a partial stripe where one device persisted
	// its unit but two earlier units are missing. The stripe cannot be
	// repaired; the zone is truncated and future conflicting writes are
	// relocated to the metadata zone.
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 64, 0) // stripe 0 complete
		v.Flush()
		mustWriteV(t, v, 64, 48, 0) // stripe 1: units 0,1,2 of 4
		// Persist only unit 2 of stripe 1 (device d2); units 0 and 1
		// are lost. The partial parity log is also lost (cut the parity
		// device's metadata zones to their flushed prefix).
		d0 := v.lt.dataDev(0, 1, 0)
		d1 := v.lt.dataDev(0, 1, 1)
		for i, d := range devs {
			m := map[int]int64{}
			for z := 0; z < d.Config().NumZones; z++ {
				zd := d.Zone(z)
				m[z] = zd.WP - d.ZoneStart(z)
			}
			if i == d0 || i == d1 {
				m[0] = 16 // stripe 0's unit only
			}
			if i == v.lt.parityDev(0, 1) {
				// Drop the unflushed pp log for stripe 1.
				for mz := 0; mz < v.lt.mdZones; mz++ {
					z := v.lt.mdZoneIndex(mz)
					zd := d.Zone(z)
					m[z] = zd.PersistedWP - d.ZoneStart(z)
				}
			}
			d.PowerLossAt(m)
		}
		v2 := remount(t, c, devs)
		wp := v2.Zone(0).WP
		if wp != 64 {
			t.Fatalf("WP after truncation = %d, want 64", wp)
		}
		if !v2.Zone(0).Remapped {
			t.Error("zone not flagged remapped despite debris")
		}
		checkReadV(t, v2, 0, 64)

		// Rewriting the truncated range must succeed (relocating the
		// collision with the persisted debris) and read back correctly.
		mustWriteV(t, v2, 64, 64, 0)
		checkReadV(t, v2, 0, 128)
		if v2.RelocationCount() == 0 {
			t.Error("no relocation entries created for burned PBAs")
		}
		// And survive another remount.
		v2.Flush()
		v3 := remount(t, c, devs)
		checkReadV(t, v3, 0, 128)
	})
}

func TestPartialZoneResetCompletedByWAL(t *testing.T) {
	// Crash mid-reset: some physical zones reset, others not. The WAL
	// must finish the job on mount.
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 256, 0) // full zone 0
		v.Flush()

		// Simulate the crash *inside* ResetZone: WAL persisted, then
		// only a subset of devices processed their reset.
		z := 0
		gen := v.Generation(z)
		for _, dev := range []int{v.lt.dataDev(z, 0, 0), v.lt.parityDev(z, 0)} {
			rec := &record{
				typ:      recResetWAL,
				startLBA: v.lt.zoneStart(z),
				endLBA:   v.lt.zoneStart(z) + v.lt.zoneSectors(),
				gen:      gen,
				inline:   encodeResetWAL(z),
			}
			fut, _, err := v.md[dev].append(rec, zns.FUA)
			if err != nil {
				t.Fatal(err)
			}
			if err := fut.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		// Two of five devices complete their reset before the crash.
		devs[0].ResetZone(z).Wait()
		devs[1].ResetZone(z).Wait()
		for _, d := range devs {
			d.PowerLoss(nil)
		}

		v2 := remount(t, c, devs)
		if st := v2.Zone(0).State; st != zns.ZoneEmpty {
			t.Errorf("zone state = %v, want empty (WAL replay)", st)
		}
		if g := v2.Generation(0); g <= gen {
			t.Errorf("generation = %d, want > %d", g, gen)
		}
		// Physical zones all empty.
		for i, d := range devs {
			if zd := d.Zone(0); zd.WP != d.ZoneStart(0) {
				t.Errorf("device %d zone 0 not reset (WP=%d)", i, zd.WP)
			}
		}
		// Zone fully rewritable.
		mustWriteV(t, v2, 0, 64, 0)
		checkReadV(t, v2, 0, 64)
	})
}

func TestStaleMetadataIgnoredAfterReset(t *testing.T) {
	// Partial-parity and reloc records from a previous generation must
	// be discarded after the zone is reset.
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 10, 0) // generates a pp log for gen 0
		if err := v.ResetZone(0); err != nil {
			t.Fatal(err)
		}
		mustWriteV(t, v, 0, 20, 0) // new generation's data
		v.Flush()
		v2 := remount(t, c, devs)
		if wp := v2.Zone(0).WP; wp != 20 {
			t.Errorf("WP = %d, want 20 (stale metadata leaked?)", wp)
		}
		checkReadV(t, v2, 0, 20)
	})
}

func TestMountBumpsGenerationOfEmptyZones(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 10, 0)
		v.Flush()
		g1 := v.Generation(1) // empty zone
		v2 := remount(t, c, devs)
		if g := v2.Generation(1); g != g1+1 {
			t.Errorf("empty zone generation = %d, want %d", g, g1+1)
		}
		if g := v2.Generation(0); g != v.Generation(0) {
			t.Errorf("non-empty zone generation changed")
		}
	})
}

func TestMetadataGCSurvivesChurn(t *testing.T) {
	// Enough partial-parity churn to force metadata GC several times;
	// everything must still recover after remount.
	c := vclock.New()
	c.Run(func() {
		devCfg := testDevConfig()
		devs := make([]*zns.Device, 5)
		for i := range devs {
			devs[i] = zns.NewDevice(c, devCfg)
		}
		v, err := Create(c, devs, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		// Each 1-sector write produces a 2-sector pp record; the 64-
		// sector pp zone forces GC every ~32 writes.
		zs := v.ZoneSectors()
		total := 0
		for z := int64(0); z < 4; z++ {
			for i := int64(0); i < 60; i++ {
				mustWriteV(t, v, z*zs+i, 1, 0)
				total++
			}
		}
		v.Flush()
		v2 := remount(t, c, devs)
		for z := int64(0); z < 4; z++ {
			if wp := v2.Zone(int(z)).WP - z*zs; wp != 60 {
				t.Errorf("zone %d WP = %d, want 60", z, wp)
			}
			checkReadV(t, v2, z*zs, 60)
		}
	})
}

func TestDoubleCrashIdempotentRecovery(t *testing.T) {
	// Crash, recover, crash again immediately, recover again.
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 100, 0)
		rng := rand.New(rand.NewSource(42))
		for _, d := range devs {
			d.PowerLoss(rng)
		}
		v2 := remount(t, c, devs)
		wp2 := v2.Zone(0).WP
		for _, d := range devs {
			d.PowerLoss(rng)
		}
		v3 := remount(t, c, devs)
		wp3 := v3.Zone(0).WP
		if wp3 < wp2 {
			t.Errorf("recovered WP regressed: %d -> %d", wp2, wp3)
		}
		if wp3 > 0 {
			checkReadV(t, v3, 0, int(wp3))
		}
	})
}
