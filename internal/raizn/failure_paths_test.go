package raizn

import (
	"testing"

	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// TestAutoDegradeOnDeviceDeath kills a device out from under the volume
// (no FailDevice call): the next IO's sub-IO errors must fold into
// degraded mode and the IO must still succeed.
func TestAutoDegradeOnDeviceDeath(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 64, 0)
		devs[2].Fail() // the volume has not been told
		// Writes hit the dead device, tolerate it, and degrade.
		mustWriteV(t, v, 64, 64, 0)
		if v.Degraded() != 2 {
			t.Errorf("Degraded() = %d, want 2 (auto-detected)", v.Degraded())
		}
		checkReadV(t, v, 0, 128)
	})
}

// TestAutoDegradeOnReadError: the first read against a silently dead
// device returns an error and flips the volume to degraded; the retry
// takes the reconstruction path.
func TestAutoDegradeOnReadError(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 64, 0)
		devs[1].Fail()
		buf := make([]byte, 64*v.SectorSize())
		err := v.Read(0, buf)
		if err == nil && v.Degraded() != 1 {
			t.Fatalf("read succeeded without degrading (degraded=%d)", v.Degraded())
		}
		// Retry after the volume noticed the death.
		checkReadV(t, v, 0, 64)
		if v.Degraded() != 1 {
			t.Errorf("Degraded() = %d, want 1", v.Degraded())
		}
	})
}

// TestScrubTriggeredDegradeUnderLoad drives the monitor policy by hand:
// scrub passes accumulate per-device error counters from injected latent
// sectors while foreground IO runs concurrently; when the counter
// crosses the threshold the device is failed mid-workload. The
// foreground IO, the scrub repairs, and the degradation must all
// coexist (-race covers the interleavings).
func TestScrubTriggeredDegradeUnderLoad(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 512, 0) // fill zone 0
		if err := v.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}

		// Latent sectors on one device across three stripes of zone 0:
		// each scrub repair attributes an error to that device.
		const target = 2
		nErrs := 0
		for s := int64(0); s < 8 && nErrs < 3; s++ {
			for u := 0; u < v.lt.d; u++ {
				dev, pba := unitSectorPBA(v, 0, s, u, 0)
				if dev == target {
					if err := devs[dev].InjectReadError(pba); err != nil {
						t.Fatalf("InjectReadError: %v", err)
					}
					nErrs++
					break
				}
			}
		}
		if nErrs != 3 {
			t.Fatalf("placed %d latent sectors, want 3", nErrs)
		}

		// Foreground: writes into zone 1 racing the scrub below.
		fgDone := c.NewFuture()
		c.Go(func() {
			base := v.ZoneSectors()
			var err error
			for off := int64(0); off < 512 && err == nil; off += 16 {
				err = v.Write(base+off, lbaPattern(v, base+off, 16), 0)
			}
			fgDone.Complete(err)
		})

		// Scrub zone 0; apply the fail-threshold policy the monitor
		// would: 3 attributed errors fail the device.
		for s := int64(0); s < v.StripesPerZone() && v.Degraded() < 0; s++ {
			if _, err := v.ScrubStripe(0, s); err != nil {
				t.Fatalf("ScrubStripe(0, %d): %v", s, err)
			}
			re, corr := v.DeviceErrorCounters(target)
			if re+corr >= 3 {
				if err := v.FailDevice(target); err != nil {
					t.Fatalf("FailDevice: %v", err)
				}
			}
		}
		if v.Degraded() != target {
			re, corr := v.DeviceErrorCounters(target)
			t.Fatalf("Degraded() = %d, want %d (re=%d corr=%d)", v.Degraded(), target, re, corr)
		}
		if err := fgDone.Wait(); err != nil {
			t.Fatalf("foreground writes: %v", err)
		}
		// Everything reads back, served degraded where needed.
		checkReadV(t, v, 0, 512)
		checkReadV(t, v, v.ZoneSectors(), 512)
	})
}

// TestReplaceDeviceRejectsBadGeometry covers the rebuild abort path.
func TestReplaceDeviceRejectsBadGeometry(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 64, 0)
		v.FailDevice(0)
		bad := testDevConfig()
		bad.ZoneCap = 64 // mismatched
		bad.ZoneSize = 80
		if _, err := v.ReplaceDevice(zns.NewDevice(c, bad)); err == nil {
			t.Fatal("mismatched replacement accepted")
		}
		// Still degraded and still serving reads.
		if v.Degraded() != 0 {
			t.Errorf("Degraded() = %d, want 0", v.Degraded())
		}
		checkReadV(t, v, 0, 64)
		// A correct replacement still works afterwards.
		if _, err := v.ReplaceDevice(zns.NewDevice(c, testDevConfig())); err != nil {
			t.Fatalf("good replacement rejected: %v", err)
		}
		checkReadV(t, v, 0, 64)
	})
}

// TestReplaceOnHealthyArrayRejected covers the not-degraded error.
func TestReplaceOnHealthyArrayRejected(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		if _, err := v.ReplaceDevice(zns.NewDevice(c, testDevConfig())); err == nil {
			t.Error("replace on healthy array accepted")
		}
	})
}

// TestAccessors covers the remaining introspection surface.
func TestAccessors(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		if v.MaxOpenZones() <= 0 {
			t.Error("MaxOpenZones not positive")
		}
		mustWriteV(t, v, 0, 10, 0)
		zones := v.ReportZones()
		if len(zones) != v.NumZones() {
			t.Fatalf("ReportZones returned %d", len(zones))
		}
		if zones[0].State != zns.ZoneOpen {
			t.Errorf("zone 0 state = %v", zones[0].State)
		}
		fp := v.Footprint()
		if fp.Devices != 5 || fp.DataDevices != 4 || fp.StripeUnitBytes != 64<<10 {
			t.Errorf("footprint = %+v", fp)
		}
		if err := v.Unmount(); err != nil {
			t.Errorf("Unmount: %v", err)
		}
	})
}

// TestInsertRelocShadowing covers fragment replacement.
func TestInsertRelocShadowing(t *testing.T) {
	list := insertReloc(nil, relocEntry{startLBA: 10, endLBA: 20})
	list = insertReloc(list, relocEntry{startLBA: 30, endLBA: 40})
	list = insertReloc(list, relocEntry{startLBA: 5, endLBA: 25}) // shadows [10,20)
	if len(list) != 2 {
		t.Fatalf("len = %d, want 2 (shadowed fragment dropped)", len(list))
	}
	if list[0].startLBA != 5 || list[1].startLBA != 30 {
		t.Errorf("order wrong: %+v", list)
	}
}
