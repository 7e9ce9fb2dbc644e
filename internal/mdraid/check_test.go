package mdraid

import (
	"bytes"
	"testing"

	"raizn/internal/blockdev"
	"raizn/internal/vclock"
)

func TestCheckCleanVolume(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*blockdev.Device) {
		mustWriteV(t, v, 0, 256)
		if err := v.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		stats, err := v.Check(false)
		if err != nil {
			t.Fatalf("Check: %v", err)
		}
		if stats.Mismatches != 0 || stats.Unrepaired != 0 {
			t.Errorf("clean volume reported damage: %+v", stats)
		}
		if stats.StripesChecked == 0 || stats.BytesRead == 0 {
			t.Errorf("check did no work: %+v", stats)
		}
	})
}

func TestCheckRepairsLatentReadError(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*blockdev.Device) {
		mustWriteV(t, v, 0, 256)
		if err := v.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		// Latent sector in data chunk 1 of stripe 2.
		dev := v.dataDev(2, 1)
		if err := devs[dev].InjectReadError(v.devPBA(2, 3)); err != nil {
			t.Fatalf("InjectReadError: %v", err)
		}
		stats, err := v.Check(false)
		if err != nil {
			t.Fatalf("Check: %v", err)
		}
		if stats.ReadErrorsRepaired != 1 {
			t.Errorf("ReadErrorsRepaired = %d, want 1", stats.ReadErrorsRepaired)
		}
		// The rewrite cleared the latent sector: data reads back clean.
		checkReadV(t, v, 0, 256)
		stats, err = v.Check(false)
		if err != nil {
			t.Fatalf("Check (2nd): %v", err)
		}
		if stats.Mismatches != 0 {
			t.Errorf("second check not clean: %+v", stats)
		}
	})
}

func TestCheckDetectsRotButRepairCannotAttribute(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*blockdev.Device) {
		mustWriteV(t, v, 0, 256)
		if err := v.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		// Rot one sector of data chunk 0 in stripe 1.
		dev := v.dataDev(1, 0)
		if err := devs[dev].CorruptSector(v.devPBA(1, 0)); err != nil {
			t.Fatalf("CorruptSector: %v", err)
		}

		// check mode: counted, left alone.
		stats, err := v.Check(false)
		if err != nil {
			t.Fatalf("Check: %v", err)
		}
		if stats.Mismatches != 1 || stats.Unrepaired != 1 {
			t.Errorf("check: %+v, want 1 mismatch, 1 unrepaired", stats)
		}

		// repair mode: parity is rewritten to match the ROTTED data —
		// md cannot attribute the rot, so the corruption becomes
		// permanent and the mismatch disappears.
		stats, err = v.Check(true)
		if err != nil {
			t.Fatalf("Check(repair): %v", err)
		}
		if stats.Mismatches != 1 || stats.ParityRewrites != 1 {
			t.Errorf("repair: %+v, want 1 mismatch, 1 parity rewrite", stats)
		}
		stats, err = v.Check(false)
		if err != nil {
			t.Fatalf("Check (after repair): %v", err)
		}
		if stats.Mismatches != 0 {
			t.Errorf("after repair: %+v, want 0 mismatches", stats)
		}
		// The logical data is now permanently wrong at the rotted LBA.
		lba := int64(1)*v.stripeSectors() + 0 // stripe 1, chunk 0, sector 0
		buf := make([]byte, v.SectorSize())
		if err := v.Read(lba, buf); err != nil {
			t.Fatalf("Read: %v", err)
		}
		if bytes.Equal(buf, lbaPattern(v, lba, 1)) {
			t.Error("rotted sector reads back clean — corruption should be permanent on mdraid")
		}
	})
}

func TestCheckRepairsParityChunkReadError(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*blockdev.Device) {
		mustWriteV(t, v, 0, 256)
		if err := v.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		pdev := v.parityDev(0)
		if err := devs[pdev].InjectReadError(v.devPBA(0, 5)); err != nil {
			t.Fatalf("InjectReadError: %v", err)
		}
		stats, err := v.Check(false)
		if err != nil {
			t.Fatalf("Check: %v", err)
		}
		if stats.ReadErrorsRepaired != 1 {
			t.Errorf("ReadErrorsRepaired = %d, want 1: %+v", stats.ReadErrorsRepaired, stats)
		}
		// Parity restored: kill a data device and read back degraded.
		ddev := v.dataDev(0, 2)
		if err := v.FailDevice(ddev); err != nil {
			t.Fatalf("FailDevice: %v", err)
		}
		checkReadV(t, v, 0, 256)
	})
}

func TestCheckSkipsDirtyStripes(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*blockdev.Device) {
		// Sub-stripe write parks dirty data in the cache (handle timer
		// has not fired yet at virtual-now).
		done := v.SubmitWrite(0, lbaPattern(v, 0, 4))
		res, err := v.CheckStripe(0, false)
		if err != nil {
			t.Fatalf("CheckStripe: %v", err)
		}
		if !res.Skipped {
			t.Error("expected dirty stripe to be skipped")
		}
		if err := done.Wait(); err != nil {
			t.Fatalf("write: %v", err)
		}
	})
}
