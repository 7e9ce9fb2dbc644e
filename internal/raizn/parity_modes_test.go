package raizn

import (
	"testing"

	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// extDevConfig enables the §5.4 device features.
func extDevConfig() zns.Config {
	cfg := testDevConfig()
	cfg.ZRWASectors = 32 // two stripe units
	cfg.MetaBytes = 64
	return cfg
}

func runModeVol(t *testing.T, mode ParityMode, fn func(c *vclock.Clock, v *Volume, devs []*zns.Device)) {
	t.Helper()
	c := vclock.New()
	c.Run(func() {
		devs := make([]*zns.Device, 5)
		for i := range devs {
			devs[i] = zns.NewDevice(c, extDevConfig())
		}
		cfg := DefaultConfig()
		cfg.ParityMode = mode
		v, err := Create(c, devs, cfg)
		if err != nil {
			t.Fatalf("Create(mode=%d): %v", mode, err)
		}
		fn(c, v, devs)
	})
}

func TestModeValidation(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		devs := newTestDevices(c, 5) // plain devices: no ZRWA, no meta
		cfg := DefaultConfig()
		cfg.ParityMode = PPZRWA
		if _, err := Create(c, devs, cfg); err == nil {
			t.Error("PPZRWA on plain devices should be rejected")
		}
		cfg.ParityMode = PPInlineMeta
		if _, err := Create(c, devs, cfg); err == nil {
			t.Error("PPInlineMeta on plain devices should be rejected")
		}
	})
}

// exerciseMode writes, reads, crashes, remounts and fails a device under
// the given parity mode.
func exerciseMode(t *testing.T, mode ParityMode) {
	runModeVol(t, mode, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		// Sub-stripe and stripe-spanning writes.
		sizes := []int{5, 11, 16, 33, 64, 3, 60, 64, 20}
		lba := int64(0)
		for _, n := range sizes {
			mustWriteV(t, v, lba, n, 0)
			lba += int64(n)
		}
		checkReadV(t, v, 0, int(lba))

		// Degraded read of full and partial stripes.
		v.Flush()
		victim := v.lt.dataDev(0, 0, 1)
		v.FailDevice(victim)
		checkReadV(t, v, 0, int(lba))

		// Rebuild restores redundancy.
		if _, err := v.ReplaceDevice(zns.NewDevice(c, extDevConfig())); err != nil {
			t.Fatalf("rebuild: %v", err)
		}
		checkReadV(t, v, 0, int(lba))
	})
}

func TestInlineMetaModeEndToEnd(t *testing.T) { exerciseMode(t, PPInlineMeta) }
func TestZRWAModeEndToEnd(t *testing.T)       { exerciseMode(t, PPZRWA) }

// crashMode verifies remount after power loss per mode.
func crashMode(t *testing.T, mode ParityMode) {
	c := vclock.New()
	c.Run(func() {
		devs := make([]*zns.Device, 5)
		for i := range devs {
			devs[i] = zns.NewDevice(c, extDevConfig())
		}
		cfg := DefaultConfig()
		cfg.ParityMode = mode
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
		wp := v2.Zone(0).WP
		if wp < 100 {
			t.Fatalf("flushed data lost: WP=%d", wp)
		}
		checkReadV(t, v2, 0, int(wp))
		// Appends continue correctly after recovery.
		mustWriteV(t, v2, wp, 40, 0)
		checkReadV(t, v2, 0, int(wp)+40)
	})
}

func TestInlineMetaModeCrash(t *testing.T) { crashMode(t, PPInlineMeta) }
func TestZRWAModeCrash(t *testing.T)       { crashMode(t, PPZRWA) }

// TestZRWADegradedMountPartialStripe: ZRWA's in-place parity must cover
// the §5.1 scenario the parity logs cover in the baseline: crash + device
// loss with a partial tail stripe.
func TestZRWADegradedMountPartialStripe(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		devs := make([]*zns.Device, 5)
		for i := range devs {
			devs[i] = zns.NewDevice(c, extDevConfig())
		}
		cfg := DefaultConfig()
		cfg.ParityMode = PPZRWA
		v, err := Create(c, devs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		mustWriteV(t, v, 0, 40, 0) // units 0,1 full; unit 2 half
		v.Flush()
		victim := v.lt.dataDev(0, 0, 1)
		avail := make([]*zns.Device, 0, 4)
		for i, d := range devs {
			if i != victim {
				avail = append(avail, d)
			}
		}
		v2, err := Mount(c, avail, cfg)
		if err != nil {
			t.Fatalf("degraded mount: %v", err)
		}
		if wp := v2.Zone(0).WP; wp != 40 {
			t.Errorf("WP=%d, want 40 (from in-place parity prefix)", wp)
		}
		checkReadV(t, v2, 0, 40)
		mustWriteV(t, v2, 40, 24, 0)
		checkReadV(t, v2, 0, 64)
	})
}

// TestInlineMetaReducesWriteAmp measures the §5.4 claim: inline headers
// shave one sector off every partial-parity log.
func TestInlineMetaReducesWriteAmp(t *testing.T) {
	measure := func(mode ParityMode) int64 {
		var total int64
		c := vclock.New()
		c.Run(func() {
			devs := make([]*zns.Device, 5)
			for i := range devs {
				devs[i] = zns.NewDevice(c, extDevConfig())
			}
			cfg := DefaultConfig()
			cfg.ParityMode = mode
			v, err := Create(c, devs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := int64(0); i < 48; i++ { // 48 x 4 KiB sub-stripe writes
				mustWriteV(t, v, i, 1, 0)
			}
			for _, d := range devs {
				w, _, _, _ := d.Counters()
				total += w
			}
		})
		return total
	}
	base := measure(PPLog)
	inline := measure(PPInlineMeta)
	if inline >= base {
		t.Errorf("inline meta did not reduce device writes: %d vs %d", inline, base)
	}
	// Each of the ~36 sub-stripe writes (48 minus the 12 that complete a
	// stripe) saves one 4 KiB header sector.
	saved := base - inline
	if saved < 30*4096 {
		t.Errorf("saved only %d bytes, expected roughly one header per log", saved)
	}
}

// TestZRWAHasNoMetadataChurn: in ZRWA mode the partial-parity metadata
// zone stays empty.
func TestZRWAHasNoMetadataChurn(t *testing.T) {
	runModeVol(t, PPZRWA, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		for i := int64(0); i < 48; i++ {
			mustWriteV(t, v, i, 1, 0)
		}
		for i, d := range devs {
			recs, err := scanMDZones(d, v.lt, v.SectorSize())
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range recs {
				if r.typ.base() == recPartialParity {
					t.Errorf("device %d has a partial-parity log in ZRWA mode", i)
				}
			}
		}
	})
}

// TestDisableResetWALAblation: without the WAL a reset completes (it is
// only the crash window that loses protection).
func TestDisableResetWALAblation(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		devs := newTestDevices(c, 5)
		cfg := DefaultConfig()
		cfg.DisableResetWAL = true
		v, err := Create(c, devs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		mustWriteV(t, v, 0, 64, 0)
		if err := v.ResetZone(0); err != nil {
			t.Fatal(err)
		}
		mustWriteV(t, v, 0, 16, 0)
		checkReadV(t, v, 0, 16)
		// No reset-WAL records must exist.
		for _, d := range devs {
			recs, err := scanMDZones(d, v.lt, v.SectorSize())
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range recs {
				if r.typ.base() == recResetWAL {
					t.Error("reset WAL written despite DisableResetWAL")
				}
			}
		}
	})
}

// TestZRWATornUnitRepairedFromPrefixParity: a partial stripe loses one
// middle unit to power failure; the in-place parity prefix repairs it
// even though the stripe never completed.
func TestZRWATornUnitRepairedFromPrefixParity(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		devs := make([]*zns.Device, 5)
		for i := range devs {
			devs[i] = zns.NewDevice(c, extDevConfig())
		}
		cfg := DefaultConfig()
		cfg.ParityMode = PPZRWA
		v, err := Create(c, devs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		mustWriteV(t, v, 0, 48, 0) // units 0,1,2 full; unit 3 unwritten
		// Crash: unit 1's device loses its stripe-0 data; everything
		// else (including the in-place parity prefix) persists.
		victim := v.lt.dataDev(0, 0, 1)
		for i, d := range devs {
			m := map[int]int64{}
			for z := 0; z < d.Config().NumZones; z++ {
				zd := d.Zone(z)
				m[z] = zd.WP - d.ZoneStart(z)
			}
			if i == victim {
				m[0] = 0
			}
			d.PowerLossAt(m)
		}
		v2, err := Mount(c, devs, cfg)
		if err != nil {
			t.Fatalf("Mount: %v", err)
		}
		if wp := v2.Zone(0).WP; wp != 48 {
			t.Errorf("WP = %d, want 48 (torn unit repaired)", wp)
		}
		checkReadV(t, v2, 0, 48)
		// The repaired unit is on its own device again.
		row := make([]byte, 16*v2.SectorSize())
		if err := devs[victim].Read(0, row).Wait(); err != nil {
			t.Fatalf("victim read: %v", err)
		}
	})
}
