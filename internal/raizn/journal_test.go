package raizn

import (
	"testing"

	"raizn/internal/obs"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// runVolJournal is runVol with a shared, enabled journal wired through
// Config.Journal (devices attached under their array slots).
func runVolJournal(t *testing.T, fn func(c *vclock.Clock, v *Volume, j *obs.Journal)) {
	t.Helper()
	c := vclock.New()
	c.Run(func() {
		devs := newTestDevices(c, 5)
		j := obs.NewJournal(c, obs.JournalConfig{Capacity: 8192})
		j.Enable()
		cfg := DefaultConfig()
		cfg.Journal = j
		v, err := Create(c, devs, cfg)
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		fn(c, v, j)
	})
}

// TestWAAccountingCloses drives writes, a finish, a reset, and a
// rewrite, then checks the invariant the layered report is built on:
// every byte the raizn layer put on a device is charged to exactly one
// category, so the category sum equals the devices' host-write total.
func TestWAAccountingCloses(t *testing.T) {
	runVolJournal(t, func(c *vclock.Clock, v *Volume, j *obs.Journal) {
		zs := v.ZoneSectors()
		// Fill zone 0, partial-write zone 1 (partial parity), finish it,
		// reset zone 0 and rewrite a bit (reset WAL + gen counters).
		for off := int64(0); off < zs; off += 32 {
			mustWriteV(t, v, off, 32, 0)
		}
		mustWriteV(t, v, zs, 24, 0)
		if err := v.FinishZone(1); err != nil {
			t.Fatal(err)
		}
		if err := v.ResetZone(0); err != nil {
			t.Fatal(err)
		}
		mustWriteV(t, v, 0, 48, 0)
		if err := v.Flush(); err != nil {
			t.Fatal(err)
		}

		rep := v.WAReport()
		if rep.UserBytes == 0 {
			t.Fatal("no user bytes accounted")
		}
		if got, want := rep.RaiznBytes(), rep.DeviceHostBytes(); got != want {
			t.Fatalf("category sum %d != device host bytes %d (unaccounted writes)", got, want)
		}
		if rep.FlashBytes() != 0 {
			t.Fatalf("zns devices have no FTL, FlashBytes = %d", rep.FlashBytes())
		}
		byName := map[string]int64{}
		for _, cat := range rep.Categories {
			byName[cat.Name] = cat.Bytes
		}
		if byName["data"] < rep.UserBytes {
			t.Errorf("data bytes %d < user bytes %d", byName["data"], rep.UserBytes)
		}
		for _, name := range []string{"parity", "pp-payload", "pp-header", "metadata"} {
			if byName[name] == 0 {
				t.Errorf("category %s empty; workload should have exercised it", name)
			}
		}
		if byName["rebuild"] != 0 {
			t.Errorf("rebuild bytes %d without a rebuild", byName["rebuild"])
		}

		// The same numbers must be visible as raizn_wa_* registry series.
		snap := v.Metrics().Snapshot()
		if got := snap.Counters["raizn_wa_data_bytes"]; got != byName["data"] {
			t.Errorf("raizn_wa_data_bytes = %d, report says %d", got, byName["data"])
		}
	})
}

// TestJournalCapturesWritePath checks the event stream records the
// logical zone lifecycle and the metadata/partial-parity appends.
func TestJournalCapturesWritePath(t *testing.T) {
	runVolJournal(t, func(c *vclock.Clock, v *Volume, j *obs.Journal) {
		zs := v.ZoneSectors()
		for off := int64(0); off < zs; off += 32 {
			mustWriteV(t, v, off, 32, 0)
		}
		mustWriteV(t, v, zs, 24, 0)
		if err := v.ResetZone(0); err != nil {
			t.Fatal(err)
		}

		var logicalOpen, logicalReset, pp, md int
		for _, e := range j.Events() {
			switch {
			case e.Type == obs.EvZoneState && e.Src == obs.SrcLogical:
				if e.A == int64(zns.ZoneOpen) {
					logicalOpen++
				}
			case e.Type == obs.EvZoneReset && e.Src == obs.SrcLogical:
				logicalReset++
				if e.Zone != 0 || e.A != zs {
					t.Errorf("logical reset event = %+v, want zone 0 wp_before %d", e, zs)
				}
			case e.Type == obs.EvPartialParity:
				pp++
				if e.A <= 0 {
					t.Errorf("partial-parity event with payload %d", e.A)
				}
			case e.Type == obs.EvMetadataWrite:
				md++
			}
		}
		if logicalOpen < 2 {
			t.Errorf("logical open events = %d, want >= 2 (two zones written)", logicalOpen)
		}
		if logicalReset != 1 {
			t.Errorf("logical reset events = %d, want 1", logicalReset)
		}
		if pp == 0 {
			t.Error("no partial-parity events; the 24-sector tail write should log parity")
		}
		if md == 0 {
			t.Error("no metadata-write events (superblock/gen/WAL expected)")
		}

		// Physical resets rode along under the device sources.
		devResets := 0
		for _, e := range j.Events() {
			if e.Type == obs.EvZoneReset && e.Src >= 0 {
				devResets++
			}
		}
		if devResets != 5 {
			t.Errorf("physical reset events = %d, want 5 (one per device)", devResets)
		}
	})
}

// TestJournalDegradedRebuildEvents covers EvDegraded entry/exit and
// EvRebuild progress.
func TestJournalDegradedRebuildEvents(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		devs := newTestDevices(c, 5)
		j := obs.NewJournal(c, obs.JournalConfig{Capacity: 8192})
		j.Enable()
		cfg := DefaultConfig()
		cfg.Journal = j
		v, err := Create(c, devs, cfg)
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		mustWriteV(t, v, 0, 64, 0)
		if err := v.FailDevice(2); err != nil {
			t.Fatal(err)
		}
		if _, err := v.ReplaceDevice(zns.NewDevice(c, testDevConfig())); err != nil {
			t.Fatalf("ReplaceDevice: %v", err)
		}

		var enter, exit, rebuilds int
		for _, e := range j.Events() {
			switch e.Type {
			case obs.EvDegraded:
				if e.Src != 2 {
					t.Errorf("degraded event src = %d, want 2", e.Src)
				}
				if e.A == 1 {
					enter++
				} else {
					exit++
				}
			case obs.EvRebuild:
				rebuilds++
				if e.Src != 2 || e.C <= 0 {
					t.Errorf("rebuild event = %+v", e)
				}
			}
		}
		if enter != 1 || exit != 1 {
			t.Errorf("degraded enter/exit = %d/%d, want 1/1", enter, exit)
		}
		if rebuilds == 0 {
			t.Error("no rebuild progress events")
		}
	})
}

// TestNoJournalNoEvents checks the default configuration (no journal)
// records nothing and Journal() still returns a usable (disabled)
// journal.
func TestNoJournalNoEvents(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 64, 0)
		j := v.Journal()
		if j == nil {
			t.Fatal("Journal() returned nil")
		}
		if j.Enabled() || j.Len() != 0 {
			t.Fatalf("private journal enabled=%v len=%d, want disabled/empty", j.Enabled(), j.Len())
		}
	})
}
