package raizn

import (
	"testing"

	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// unitSectorPBA returns (device, device-absolute sector) of intra offset
// `intra` of data unit u (or the parity unit when u == d) of stripe s in
// logical zone z.
func unitSectorPBA(v *Volume, z int, s int64, u int, intra int64) (int, int64) {
	dev, sector := v.UnitLocation(z, s, u)
	return dev, sector + intra
}

func TestScrubVerifiesCleanStripes(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 128, 0) // two full stripes in zone 0
		for s := int64(0); s < 2; s++ {
			res, err := v.ScrubStripe(0, s)
			if err != nil {
				t.Fatalf("ScrubStripe(0, %d): %v", s, err)
			}
			if !res.Verified || res.Mismatch || res.Skipped {
				t.Errorf("stripe %d: got %+v, want clean verify", s, res)
			}
		}
		// Partial tail stripe and unwritten stripes are skipped.
		mustWriteV(t, v, 128, 8, 0)
		res, err := v.ScrubStripe(0, 2)
		if err != nil {
			t.Fatalf("ScrubStripe(0, 2): %v", err)
		}
		if !res.Skipped {
			t.Errorf("partial stripe: got %+v, want skipped", res)
		}
		if got := v.Stats().ScrubbedStripes; got != 2 {
			t.Errorf("ScrubbedStripes = %d, want 2", got)
		}
	})
}

func TestScrubRepairsDataRot(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 64, 0)
		if err := v.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		dev, pba := unitSectorPBA(v, 0, 0, 2, 5)
		if err := devs[dev].CorruptSector(pba); err != nil {
			t.Fatalf("CorruptSector: %v", err)
		}
		res, err := v.ScrubStripe(0, 0)
		if err != nil {
			t.Fatalf("ScrubStripe: %v", err)
		}
		if !res.Mismatch || !res.RepairedData || !res.Verified {
			t.Fatalf("got %+v, want mismatch+repaired", res)
		}
		checkReadV(t, v, 0, 64)
		// The repair went through the relocation map.
		if v.RelocationCount() == 0 {
			t.Error("repair did not create a relocation entry")
		}
		if re, _ := v.DeviceErrorCounters(dev); re != 0 {
			t.Errorf("readErrors = %d, want 0", re)
		}
		if _, corr := v.DeviceErrorCounters(dev); corr != 1 {
			t.Errorf("corruptions = %d, want 1", corr)
		}
		// A second pass sees a clean stripe.
		res, err = v.ScrubStripe(0, 0)
		if err != nil {
			t.Fatalf("ScrubStripe (2nd): %v", err)
		}
		if !res.Verified || res.Mismatch {
			t.Errorf("second pass: got %+v, want clean", res)
		}
	})
}

func TestScrubRepairsParityRot(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 64, 0)
		dev, pba := unitSectorPBA(v, 0, 0, v.lt.d, 3)
		if err := devs[dev].CorruptSector(pba); err != nil {
			t.Fatalf("CorruptSector: %v", err)
		}
		res, err := v.ScrubStripe(0, 0)
		if err != nil {
			t.Fatalf("ScrubStripe: %v", err)
		}
		if !res.Mismatch || !res.RepairedParity || !res.Verified {
			t.Fatalf("got %+v, want parity repair", res)
		}
		// Degraded reads after the repair reconstruct from the corrected
		// parity: fail a data-holding device and re-read.
		if err := v.FailDevice(v.lt.dataDev(0, 0, 0)); err != nil {
			t.Fatalf("FailDevice: %v", err)
		}
		checkReadV(t, v, 0, 64)
	})
}

func TestScrubRepairsLatentReadError(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 64, 0)
		dev, pba := unitSectorPBA(v, 0, 0, 1, 0)
		if err := devs[dev].InjectReadError(pba); err != nil {
			t.Fatalf("InjectReadError: %v", err)
		}
		res, err := v.ScrubStripe(0, 0)
		if err != nil {
			t.Fatalf("ScrubStripe: %v", err)
		}
		if res.ReadErrors != 1 || !res.RepairedData || !res.Verified {
			t.Fatalf("got %+v, want read-error repair", res)
		}
		// The relocation overlay shadows the latent sector: reads no
		// longer touch it.
		checkReadV(t, v, 0, 64)
		if re, _ := v.DeviceErrorCounters(dev); re == 0 {
			t.Error("latent read error not counted against the device")
		}
	})
}

func TestScrubNeverRepairsUnattributable(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 64, 0)
		// Rot in two different units of the same stripe: not repairable
		// with single parity.
		d1, p1 := unitSectorPBA(v, 0, 0, 0, 1)
		d2, p2 := unitSectorPBA(v, 0, 0, 3, 7)
		if err := devs[d1].CorruptSector(p1); err != nil {
			t.Fatalf("CorruptSector: %v", err)
		}
		if err := devs[d2].CorruptSector(p2); err != nil {
			t.Fatalf("CorruptSector: %v", err)
		}
		res, err := v.ScrubStripe(0, 0)
		if err != nil {
			t.Fatalf("ScrubStripe: %v", err)
		}
		if !res.Mismatch || !res.Unrepaired || res.RepairedData || res.RepairedParity {
			t.Fatalf("got %+v, want unrepaired", res)
		}
		if v.RelocationCount() != 0 {
			t.Error("unrepairable stripe must not be modified")
		}
	})
}

func TestScrubForegroundReadRepair(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 64, 0)
		dev, pba := unitSectorPBA(v, 0, 0, 0, 2)
		if err := devs[dev].InjectReadError(pba); err != nil {
			t.Fatalf("InjectReadError: %v", err)
		}
		// A foreground read of the affected range succeeds transparently
		// via parity reconstruction.
		checkReadV(t, v, 0, 64)
		if got := v.Stats().ReadErrorRepairs; got == 0 {
			t.Error("read-repair not counted")
		}
		if re, _ := v.DeviceErrorCounters(dev); re == 0 {
			t.Error("read error not counted against device")
		}
	})
}

func TestChecksumsSurviveRemount(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		devs := newTestDevices(c, 5)
		v, err := Create(c, devs, DefaultConfig())
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		mustWriteV(t, v, 0, 128, 0)
		if err := v.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		if err := v.Unmount(); err != nil {
			t.Fatalf("Unmount: %v", err)
		}

		v2, err := Mount(c, devs, DefaultConfig())
		if err != nil {
			t.Fatalf("Mount: %v", err)
		}
		if got := v2.ChecksumCoverage(0); got != 2 {
			t.Fatalf("ChecksumCoverage(0) = %d, want 2", got)
		}
		// Rot introduced while offline is caught and repaired using the
		// replayed checksums.
		dev, pba := unitSectorPBA(v2, 0, 1, 2, 9)
		if err := devs[dev].CorruptSector(pba); err != nil {
			t.Fatalf("CorruptSector: %v", err)
		}
		res, err := v2.ScrubStripe(0, 1)
		if err != nil {
			t.Fatalf("ScrubStripe: %v", err)
		}
		if !res.Mismatch || !res.RepairedData {
			t.Fatalf("got %+v, want repair from replayed checksums", res)
		}
		checkReadV(t, v2, 0, 128)
	})
}

func TestScrubAdoptsUncoveredStripes(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 64, 0)
		// Simulate a pre-checksum stripe by dropping the table row.
		v.clearZoneChecksums(0)
		res, err := v.ScrubStripe(0, 0)
		if err != nil {
			t.Fatalf("ScrubStripe: %v", err)
		}
		if !res.Adopted || !res.Verified {
			t.Fatalf("got %+v, want adopt", res)
		}
		if v.StripeChecksums(0, 0) == nil {
			t.Fatal("adopt did not record checksums")
		}
		// Rot after adoption is attributable.
		dev, pba := unitSectorPBA(v, 0, 0, 1, 1)
		if err := devs[dev].CorruptSector(pba); err != nil {
			t.Fatalf("CorruptSector: %v", err)
		}
		res, err = v.ScrubStripe(0, 0)
		if err != nil {
			t.Fatalf("ScrubStripe: %v", err)
		}
		if !res.RepairedData {
			t.Fatalf("got %+v, want repair after adoption", res)
		}
	})
}

func TestScrubProgressTracking(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 192, 0)
		for s := int64(0); s < 3; s++ {
			if _, err := v.ScrubStripe(0, s); err != nil {
				t.Fatalf("ScrubStripe: %v", err)
			}
		}
		if got := v.ScrubProgress()[0]; got != 3 {
			t.Errorf("ScrubProgress[0] = %d, want 3", got)
		}
		v.ResetScrubProgress()
		if got := v.ScrubProgress()[0]; got != 0 {
			t.Errorf("after reset: ScrubProgress[0] = %d, want 0", got)
		}
	})
}

func TestScrubSkipsAfterZoneReset(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 64, 0)
		if err := v.ResetZone(0); err != nil {
			t.Fatalf("ResetZone: %v", err)
		}
		res, err := v.ScrubStripe(0, 0)
		if err != nil {
			t.Fatalf("ScrubStripe: %v", err)
		}
		if !res.Skipped {
			t.Errorf("got %+v, want skipped after reset", res)
		}
		if v.StripeChecksums(0, 0) != nil {
			t.Error("zone reset did not clear the checksum table")
		}
	})
}
