package raizn

import (
	"testing"

	"raizn/internal/obs"
	"raizn/internal/ppengine"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// zraidDevConfig gives the devices the ZRWA the zraid engine's PP slots
// overwrite through: two slots (su=16 -> stride 17) per window.
func zraidDevConfig() zns.Config {
	cfg := testDevConfig()
	cfg.ZRWASectors = 34
	return cfg
}

func zraidConfig() Config {
	cfg := DefaultConfig()
	cfg.ParityEngine = EngineZRAID
	return cfg
}

// runZraidVol runs fn on a 5-device zraid volume: 8 zones - 3 metadata
// - 1 PP = 4 logical zones of 512 sectors.
func runZraidVol(t *testing.T, fn func(c *vclock.Clock, v *Volume, devs []*zns.Device)) {
	t.Helper()
	c := vclock.New()
	c.Run(func() {
		devs := make([]*zns.Device, 5)
		for i := range devs {
			devs[i] = zns.NewDevice(c, zraidDevConfig())
		}
		v, err := Create(c, devs, zraidConfig())
		if err != nil {
			t.Fatalf("Create(zraid): %v", err)
		}
		fn(c, v, devs)
	})
}

func TestZRAIDCreateGeometry(t *testing.T) {
	runZraidVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		if got := v.NumZones(); got != 4 {
			t.Errorf("NumZones = %d, want 4 (8 phys - 3 md - 1 pp)", got)
		}
		if k := v.ParityEngineKind(); k != EngineZRAID {
			t.Errorf("engine kind = %v, want zraid", k)
		}
		if got := zraidConfig().ReservedZones(); got != 4 {
			t.Errorf("ReservedZones = %d, want 4", got)
		}
	})
}

func TestZRAIDValidation(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		// No ZRWA on the devices: the slots cannot be overwritten.
		devs := newTestDevices(c, 5)
		if _, err := Create(c, devs, zraidConfig()); err == nil {
			t.Error("zraid on ZRWA-less devices should be rejected")
		}
	})
}

// TestZRAIDEndToEnd drives sub-stripe and spanning writes, degraded
// reads, and a rebuild on the zraid engine.
func TestZRAIDEndToEnd(t *testing.T) {
	runZraidVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		sizes := []int{5, 11, 16, 33, 64, 3, 60, 64, 20}
		lba := int64(0)
		for _, n := range sizes {
			mustWriteV(t, v, lba, n, 0)
			lba += int64(n)
		}
		checkReadV(t, v, 0, int(lba))

		v.Flush()
		victim := v.lt.dataDev(0, 0, 1)
		v.FailDevice(victim)
		checkReadV(t, v, 0, int(lba))

		if _, err := v.ReplaceDevice(zns.NewDevice(c, zraidDevConfig())); err != nil {
			t.Fatalf("rebuild: %v", err)
		}
		checkReadV(t, v, 0, int(lba))

		st := v.PPEngineStats()
		if st.VolatileBytes == 0 {
			t.Error("no volatile PP bytes: slot overwrites never happened")
		}
	})
}

// TestZRAIDCrashRecovery power-cuts mid-zone and expects the flushed
// prefix back, with appends continuing.
func TestZRAIDCrashRecovery(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		devs := make([]*zns.Device, 5)
		for i := range devs {
			devs[i] = zns.NewDevice(c, zraidDevConfig())
		}
		cfg := zraidConfig()
		v, err := Create(c, devs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		mustWriteV(t, v, 0, 100, 0)
		if err := v.Flush(); err != nil {
			t.Fatal(err)
		}
		mustWriteV(t, v, 100, 30, 0) // unflushed tail
		for _, d := range devs {
			d.PowerLoss(nil)
		}
		v2, err := Mount(c, devs, cfg)
		if err != nil {
			t.Fatalf("Mount: %v", err)
		}
		if k := v2.ParityEngineKind(); k != EngineZRAID {
			t.Fatalf("recovered volume engine = %v", k)
		}
		wp := v2.Zone(0).WP
		if wp < 100 {
			t.Fatalf("flushed data lost: WP=%d", wp)
		}
		checkReadV(t, v2, 0, int(wp))

		// Recovery re-checkpoints live parity into the metadata zones and
		// formats the slot table: the PP zones start empty.
		recs, err := v2.slots.Scan()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 0 {
			t.Errorf("PP zones not formatted after recovery: %d records", len(recs))
		}

		mustWriteV(t, v2, wp, 40, 0)
		checkReadV(t, v2, 0, int(wp)+40)
	})
}

// TestZRAIDCrashAllSubmitted cuts every zone at its submitted write
// pointer (nothing torn, nothing flushed) and expects recovery to
// produce a readable volume including the PP-protected tail stripe.
func TestZRAIDCrashAllSubmitted(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		devs := make([]*zns.Device, 5)
		for i := range devs {
			devs[i] = zns.NewDevice(c, zraidDevConfig())
		}
		cfg := zraidConfig()
		v, err := Create(c, devs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		mustWriteV(t, v, 0, 64, 0)
		mustWriteV(t, v, 64, 24, 0) // partial stripe: PP slot written

		cc := captureCrash(devs, 0)
		cc.allClk.Run(func() {
			v2, err := Mount(cc.allClk, cc.allDevs, cfg)
			if err != nil {
				t.Fatalf("Mount all-submitted clone: %v", err)
			}
			wp := v2.Zone(0).WP
			if wp < 64 {
				t.Fatalf("full stripe lost: WP=%d", wp)
			}
			checkReadV(t, v2, 0, int(wp))
		})
	})
}

// TestZRAIDWAAccountingCloses replays the logged engine's closure
// invariant on zraid: every byte the raizn layer puts on a device —
// including PP slot writes — lands in exactly one
// category, so the category sum equals device host bytes.
func TestZRAIDWAAccountingCloses(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		devs := make([]*zns.Device, 5)
		for i := range devs {
			devs[i] = zns.NewDevice(c, zraidDevConfig())
		}
		j := obs.NewJournal(c, obs.JournalConfig{Capacity: 8192})
		j.Enable()
		cfg := zraidConfig()
		cfg.Journal = j
		v, err := Create(c, devs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		zs := v.ZoneSectors()
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
		if err := v.Maintain(); err != nil {
			t.Fatal(err)
		}
		if err := v.Flush(); err != nil {
			t.Fatal(err)
		}

		rep := v.WAReport()
		if got, want := rep.RaiznBytes(), rep.DeviceHostBytes(); got != want {
			t.Fatalf("category sum %d != device host bytes %d (unaccounted writes)", got, want)
		}
		byName := map[string]int64{}
		for _, cat := range rep.Categories {
			byName[cat.Name] = cat.Bytes
		}
		for _, name := range []string{"data", "parity", "pp-payload", "pp-header", "metadata"} {
			if byName[name] == 0 {
				t.Errorf("category %s empty; workload should have exercised it", name)
			}
		}
	})
}

// TestZRAIDBackpressureFallback fills one device's slot table with live
// stripes and checks the next stripe's partial parity overflows to the
// metadata log — the write succeeds, FallbackTotal grows, and the WA
// accounting still closes.
func TestZRAIDBackpressureFallback(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		devs := make([]*zns.Device, 5)
		for i := range devs {
			devs[i] = zns.NewDevice(c, zraidDevConfig())
		}
		j := obs.NewJournal(c, obs.JournalConfig{Capacity: 8192})
		j.Enable()
		cfg := zraidConfig()
		cfg.Journal = j
		v, err := Create(c, devs, cfg)
		if err != nil {
			t.Fatal(err)
		}

		// Fill device 0's two-slot table with live stripes the volume never
		// closes.
		ss := v.SectorSize()
		for i := 0; i < 2; i++ {
			persistPP(t, v, ppengine.Append{
				Dev: 0, Zone: 0, Stripe: int64(1000 + i),
				StartLBA: 0, EndLBA: 8, Gen: 999,
				Frame: make([]byte, (1+8)*ss),
			})
		}
		before := v.PPEngineStats()

		// Stripe 4 of zone 0 sends its partial parity to device 0
		// (parityDev = 4 - (s+z)%5): four full stripes, then a partial.
		for i := 0; i < 4; i++ {
			mustWriteV(t, v, int64(i)*64, 64, 0)
		}
		mustWriteV(t, v, 256, 8, 0)
		checkReadV(t, v, 0, 264)

		after := v.PPEngineStats()
		if after.FallbackTotal <= before.FallbackTotal {
			t.Errorf("no fallback counted: %d -> %d", before.FallbackTotal, after.FallbackTotal)
		}
		if err := v.Flush(); err != nil {
			t.Fatal(err)
		}
		rep := v.WAReport()
		if got, want := rep.RaiznBytes(), rep.DeviceHostBytes(); got != want {
			t.Fatalf("WA accounting does not close under fallback: %d != %d", got, want)
		}
	})
}

// TestZRAIDWriteAfterRebuild replaces the parity device of two partial
// stripes, one of them in its second slot, and writes to that stripe again:
// the replacement's PP zone is empty, so the slot table must place the image
// afresh there rather than overwrite the slot the old device held.
func TestZRAIDWriteAfterRebuild(t *testing.T) {
	runZraidVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		p := v.lt.parityDev(0, 0)
		zs := v.ZoneSectors()
		mustWriteV(t, v, 0, 8, 0)      // zone 0 stripe 0: slot 0 on p
		mustWriteV(t, v, zs, 256+8, 0) // zone 1 stripe 4, parity on p too: slot 1
		if err := v.Flush(); err != nil {
			t.Fatal(err)
		}
		v.FailDevice(p)
		if _, err := v.ReplaceDevice(zns.NewDevice(c, zraidDevConfig())); err != nil {
			t.Fatalf("rebuild: %v", err)
		}
		if err := v.SubmitWrite(zs+264, lbaPattern(v, zs+264, 8), 0).Wait(); err != nil {
			t.Fatalf("write after rebuild: %v", err)
		}
		checkReadV(t, v, 0, 8)
		checkReadV(t, v, zs, 272)
	})
}

// TestZRAIDDegradedMaintain fails a device mid-workload and checks
// writes, reads, and Maintain tolerate the hole.
func TestZRAIDDegradedMaintain(t *testing.T) {
	runZraidVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 100, 0)
		v.Flush()
		v.FailDevice(2)
		mustWriteV(t, v, 100, 60, 0)
		checkReadV(t, v, 0, 160)
		if err := v.Maintain(); err != nil {
			t.Fatalf("Maintain degraded: %v", err)
		}
		mustWriteV(t, v, 160, 24, 0)
		checkReadV(t, v, 0, 184)
	})
}

// TestZRAIDDegradedLogsPartialParity: a degraded zraid array appends
// every partial-parity image to the §5.1 log and none to a slot. The
// logged bytes count as pp_permanent, not as fallbacks.
func TestZRAIDDegradedLogsPartialParity(t *testing.T) {
	runZraidVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		if err := v.FailDevice(v.lt.dataDev(0, 0, 1)); err != nil {
			t.Fatal(err)
		}
		var lba int64
		for _, n := range []int{16, 4, 3, 2} {
			mustWriteV(t, v, lba, n, zns.FUA)
			lba += int64(n)
		}
		st, rep := v.PPEngineStats(), v.WAReport()
		var logged int64
		for _, cat := range rep.Categories {
			if cat.Name == "pp-header" || cat.Name == "pp-payload" {
				logged += cat.Bytes
			}
		}
		if logged == 0 || st.PermanentBytes != logged {
			t.Errorf("PermanentBytes = %d, logged partial parity = %d bytes; want equal and non-zero", st.PermanentBytes, logged)
		}
		if st.FallbackTotal != 0 || st.VolatileBytes != 0 {
			t.Errorf("FallbackTotal = %d, VolatileBytes = %d; want 0 and 0", st.FallbackTotal, st.VolatileBytes)
		}
		recs, err := v.slots.Scan()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 0 {
			t.Errorf("%d images in slots; a degraded array logs them all", len(recs))
		}
	})
}

// persistPP persists one partial-parity image through issuePendingMD, the
// write path's one persistence step, and waits for it.
func persistPP(t *testing.T, v *Volume, a ppengine.Append) {
	t.Helper()
	p := []pendingMD{{dev: a.Dev, z: a.Zone, s: a.Stripe, hasPP: true, pp: a}}
	if err := v.awaitSubIOs(v.issuePendingMD(nil, nil, p, nil, 0)); err != nil {
		t.Fatal(err)
	}
}
