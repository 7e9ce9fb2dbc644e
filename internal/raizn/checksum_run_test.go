package raizn

import (
	"testing"

	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// TestChecksumRunFillsRecord: a zone's pending checksum run goes to the
// log, without a durability point, once it fills one record (csRunRows),
// in full records only; the rest waits for the flush. With one-sector
// stripe units a zone has enough stripes for that.
func TestChecksumRunFillsRecord(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		dc := testDevConfig()
		dc.ZoneCap, dc.ZoneSize = 1024, 1024
		dc.NumZones = 4
		devs := make([]*zns.Device, 5)
		for i := range devs {
			devs[i] = zns.NewDevice(c, dc)
		}
		cfg := DefaultConfig()
		cfg.StripeUnitSectors = 1
		v, err := Create(c, devs, cfg)
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		per := v.csRunRows()
		if per != 202 {
			t.Fatalf("csRunRows = %d, want 202 at n = 5", per)
		}
		stripe := v.lt.stripeSectors()
		records := func() int64 { return v.Stats().ChecksumRecords }

		mustWriteV(t, v, 0, int(per-1)*int(stripe), 0)
		if got := records(); got != 0 {
			t.Fatalf("%d records for %d pending rows, want 0", got, per-1)
		}
		// One more stripe fills a record; 2*per+5 in one write, two.
		mustWriteV(t, v, (per-1)*stripe, int(stripe), 0)
		if got := records(); got != 1 {
			t.Fatalf("%d records once the run filled one, want 1", got)
		}
		mustWriteV(t, v, per*stripe, int(2*per+5)*int(stripe), 0)
		if got := records(); got != 3 {
			t.Fatalf("%d records after two more full runs, want 3", got)
		}
		if err := v.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := records(); got != 4 {
			t.Fatalf("%d records after the flush, want 4 (the 5-row rest)", got)
		}
		for _, d := range devs {
			d.PowerLoss(nil)
		}
		if v, err = Mount(c, devs, cfg); err != nil {
			t.Fatalf("Mount: %v", err)
		}
		if got, want := v.ChecksumCoverage(0), 3*per+5; got != want {
			t.Fatalf("ChecksumCoverage = %d, want %d", got, want)
		}
		for s := int64(0); s < 3*per+5; s++ {
			checkRow(t, v, 0, s, 0)
		}
	})
}

// TestCheckpointTakesPendingRows: rows a durable metadata-GC checkpoint
// carries leave their zone's pending run, so the next flush appends only
// the rows completed after the roll-over.
func TestCheckpointTakesPendingRows(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		stripe := int(v.lt.stripeSectors())
		dev := v.checksumDev(0)
		mustWriteV(t, v, 0, 3*stripe, 0)
		for before := v.Stats().MetadataGCs; v.Stats().MetadataGCs == before; {
			fut, _, err := v.md[dev].append(bigRecord(v, 30), zns.FUA)
			if err == nil {
				err = fut.Wait()
			}
			if err != nil {
				t.Fatalf("general append: %v", err)
			}
		}
		if err := v.md[dev].quiesce(); err != nil {
			t.Fatal(err)
		}
		if got := v.Stats().ChecksumRecords; got != 0 {
			t.Fatalf("ChecksumRecords = %d before any durability point, want 0", got)
		}
		mustWriteV(t, v, int64(3*stripe), stripe, 0)
		if err := v.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := v.Stats().ChecksumRecords; got != 1 {
			t.Fatalf("ChecksumRecords = %d after the flush, want 1", got)
		}
		recs, err := scanMDZones(devs[dev], v.lt, v.sectorSize)
		if err != nil {
			t.Fatal(err)
		}
		var runs [][2]int64
		for i := range recs {
			if r := &recs[i]; r.typ == recChecksums {
				z, first, crcs, _ := decodeChecksums(r.inline)
				if z == 0 {
					runs = append(runs, [2]int64{first, int64(len(crcs) / v.csSlots())})
				}
			}
		}
		if len(runs) != 1 || runs[0] != [2]int64{3, 1} {
			t.Fatalf("zone 0's runtime records (first, rows) = %v, want [[3 1]]", runs)
		}
	})
}
