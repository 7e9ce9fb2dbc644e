package raizn

import (
	"testing"

	"raizn/internal/vclock"
	"raizn/internal/zns"
)

func TestStatsCounters(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 10, 0)  // sub-stripe: pp log
		mustWriteV(t, v, 10, 54, 0) // completes the stripe: full parity
		checkReadV(t, v, 0, 64)
		if err := v.ResetZone(0); err != nil {
			t.Fatal(err)
		}
		st := v.Stats()
		if st.LogicalWriteBytes != 64*4096 {
			t.Errorf("LogicalWriteBytes = %d", st.LogicalWriteBytes)
		}
		if st.LogicalReadBytes != 64*4096 {
			t.Errorf("LogicalReadBytes = %d", st.LogicalReadBytes)
		}
		if st.PartialParityLogs == 0 {
			t.Error("no partial parity logs counted")
		}
		if st.FullParityWrites != 1 {
			t.Errorf("FullParityWrites = %d, want 1", st.FullParityWrites)
		}
		if st.ZoneResets != 1 {
			t.Errorf("ZoneResets = %d, want 1", st.ZoneResets)
		}
		if st.DegradedReads != 0 {
			t.Errorf("DegradedReads = %d, want 0", st.DegradedReads)
		}
	})
}

func TestStatsDegradedAndWA(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 128, 0)
		rep := v.WAReport()
		if wa := float64(rep.DeviceHostBytes()) / float64(rep.UserBytes); wa < 1.24 {
			t.Errorf("WA = %f, want >= n/d", wa)
		}
		v.FailDevice(1)
		checkReadV(t, v, 0, 128)
		if st := v.Stats(); st.DegradedReads == 0 {
			t.Error("degraded reads not counted")
		}
	})
}

// TestChecksumRecordsCountAppends: raizn_checksum_records_total counts
// the records appended to a log, not rows computed. A zone whose checksum
// device has failed appends none; a healthy one appends one per FUA write
// that completes a stripe and one run per flush.
func TestChecksumRecordsCountAppends(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		stripe := int(v.lt.stripeSectors())
		if err := v.FailDevice(v.checksumDev(0)); err != nil {
			t.Fatal(err)
		}
		mustWriteV(t, v, 0, stripe, zns.FUA)
		mustWriteV(t, v, int64(stripe), stripe, zns.FUA)
		if got := v.Stats().ChecksumRecords; got != 0 {
			t.Errorf("ChecksumRecords = %d with the checksum device failed, want 0", got)
		}

		z1 := v.ZoneSectors()
		if v.checksumDev(1) == v.Degraded() {
			t.Fatal("zone 1's checksum device is the failed one")
		}
		mustWriteV(t, v, z1, stripe, zns.FUA)
		mustWriteV(t, v, z1+int64(stripe), stripe, zns.FUA)
		if got := v.Stats().ChecksumRecords; got != 2 {
			t.Errorf("ChecksumRecords = %d after two FUA stripes, want 2", got)
		}
		mustWriteV(t, v, z1+2*int64(stripe), 3*stripe, 0)
		if got := v.Stats().ChecksumRecords; got != 2 {
			t.Errorf("ChecksumRecords = %d after non-FUA stripes, want 2 (the run waits)", got)
		}
		if err := v.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := v.Stats().ChecksumRecords; got != 3 {
			t.Errorf("ChecksumRecords = %d after the flush, want 3", got)
		}
	})
}
