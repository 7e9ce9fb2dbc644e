package scrub

import (
	"bytes"
	"testing"
	"time"

	"raizn/internal/obs"
	"raizn/internal/raizn"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

const (
	testDevs     = 5
	testSU       = 16
	testZoneSize = 160
	testZoneCap  = 128
)

func testDevConfig() zns.Config {
	cfg := zns.DefaultConfig()
	cfg.NumZones = 8
	cfg.ZoneSize = testZoneSize
	cfg.ZoneCap = testZoneCap
	cfg.MaxOpenZones = 8
	cfg.MaxActiveZones = 10
	return cfg
}

func newVol(t *testing.T, c *vclock.Clock) (*raizn.Volume, []*zns.Device) {
	t.Helper()
	devs := make([]*zns.Device, testDevs)
	for i := range devs {
		devs[i] = zns.NewDevice(c, testDevConfig())
	}
	v, err := raizn.Create(c, devs, raizn.DefaultConfig())
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return v, devs
}

// dataSector computes (device, device-absolute sector) of intra offset
// `intra` of data unit u in stripe s of logical zone z, mirroring the
// volume's arithmetic layout.
func dataSector(z int, s int64, u int, intra int64) (int, int64) {
	pd := testDevs - 1 - int((s+int64(z))%int64(testDevs))
	dev := (pd + 1 + u) % testDevs
	return dev, int64(z)*testZoneSize + s*testSU + intra
}

func pattern(v *raizn.Volume, lba int64, n int) []byte {
	ss := v.SectorSize()
	out := make([]byte, n*ss)
	for i := 0; i < n; i++ {
		cur := lba + int64(i)
		for j := 0; j < ss; j++ {
			out[i*ss+j] = byte(cur) ^ byte(j) ^ byte(cur>>8)
		}
	}
	return out
}

func mustWrite(t *testing.T, v *raizn.Volume, lba int64, n int) {
	t.Helper()
	if err := v.Write(lba, pattern(v, lba, n), 0); err != nil {
		t.Fatalf("Write(%d, %d): %v", lba, n, err)
	}
}

func checkRead(t *testing.T, v *raizn.Volume, lba int64, n int) {
	t.Helper()
	buf := make([]byte, n*v.SectorSize())
	if err := v.Read(lba, buf); err != nil {
		t.Fatalf("Read(%d, %d): %v", lba, n, err)
	}
	if !bytes.Equal(buf, pattern(v, lba, n)) {
		t.Fatalf("Read(%d, %d): data mismatch", lba, n)
	}
}

func TestPassRepairsAllInjectedRot(t *testing.T) {
	type hit struct {
		z     int
		s     int64
		u     int
		intra int64
	}
	// One bad unit per stripe so every instance is attributable: rot
	// across zones, stripes and units, and in the second case latent read
	// errors beside it in the same pass, over three zones.
	for _, tc := range []struct {
		zones      int64
		rots, lats []hit
	}{
		{2, []hit{{0, 0, 0, 0}, {0, 2, 3, 7}, {0, 5, 1, 15}, {1, 1, 2, 3}, {1, 7, 0, 9}, {1, 4, 3, 12}}, nil},
		{3, []hit{{0, 0, 0, 0}, {0, 3, 2, 7}, {1, 6, 1, 15}, {2, 7, 3, 4}}, []hit{{1, 2, 0, 6}, {2, 5, 2, 11}}},
	} {
		c := vclock.New()
		c.Run(func() {
			v, devs := newVol(t, c)
			// Fill the logical zones (8 complete stripes each).
			zoneSec := int(v.ZoneSectors())
			for z := int64(0); z < tc.zones; z++ {
				mustWrite(t, v, z*v.ZoneSectors(), zoneSec)
			}
			if err := v.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
			for _, h := range tc.rots {
				dev, pba := dataSector(h.z, h.s, h.u, h.intra)
				if err := devs[dev].CorruptSector(pba); err != nil {
					t.Fatalf("CorruptSector(%+v): %v", h, err)
				}
			}
			for _, h := range tc.lats {
				dev, pba := dataSector(h.z, h.s, h.u, h.intra)
				if err := devs[dev].InjectReadError(pba); err != nil {
					t.Fatalf("InjectReadError(%+v): %v", h, err)
				}
			}

			s := New(Config{Clock: c, Volume: v, Repair: true})
			stats, err := s.RunPass()
			if err != nil {
				t.Fatalf("RunPass: %v", err)
			}
			if stats.Mismatches != int64(len(tc.rots)) {
				t.Errorf("Mismatches = %d, want %d", stats.Mismatches, len(tc.rots))
			}
			if stats.ReadErrors != int64(len(tc.lats)) {
				t.Errorf("ReadErrors = %d, want %d", stats.ReadErrors, len(tc.lats))
			}
			if stats.RepairedData != int64(len(tc.rots)+len(tc.lats)) {
				t.Errorf("RepairedData = %d, want %d", stats.RepairedData, len(tc.rots)+len(tc.lats))
			}
			if stats.Unrepaired != 0 {
				t.Errorf("Unrepaired = %d, want 0", stats.Unrepaired)
			}

			// Full-volume readback: every acked LBA intact.
			for z := int64(0); z < tc.zones; z++ {
				checkRead(t, v, z*v.ZoneSectors(), zoneSec)
			}

			// A second pass is clean.
			stats, err = s.RunPass()
			if err != nil {
				t.Fatalf("RunPass (2nd): %v", err)
			}
			if stats.Mismatches != 0 || stats.ReadErrors != 0 || stats.RepairedData != 0 {
				t.Errorf("second pass not clean: %+v", stats)
			}
		})
	}
}

// TestPassJournaled: a pass over a volume whose journal is enabled
// records exactly one EvScrub event, carrying the pass's counts.
func TestPassJournaled(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		jrn := obs.NewJournal(c, obs.JournalConfig{})
		jrn.Enable()
		cfg := raizn.DefaultConfig()
		cfg.Journal = jrn
		devs := make([]*zns.Device, testDevs)
		for i := range devs {
			devs[i] = zns.NewDevice(c, testDevConfig())
		}
		v, err := raizn.Create(c, devs, cfg)
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		mustWrite(t, v, 0, int(v.ZoneSectors()))
		if err := v.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		for _, s := range []int64{1, 6} {
			dev, pba := dataSector(0, s, 2, 3)
			if err := devs[dev].CorruptSector(pba); err != nil {
				t.Fatalf("CorruptSector: %v", err)
			}
		}

		stats, err := New(Config{Clock: c, Volume: v, Repair: true}).RunPass()
		if err != nil {
			t.Fatalf("RunPass: %v", err)
		}
		if stats.Mismatches != 2 || stats.RepairedData != 2 {
			t.Fatalf("pass %+v: want 2 mismatches, 2 data repairs", stats)
		}
		var got []obs.Event
		for _, e := range jrn.Events() {
			if e.Type == obs.EvScrub {
				got = append(got, e)
			}
		}
		if len(got) != 1 {
			t.Fatalf("journal holds %d scrub events, want 1", len(got))
		}
		e := got[0]
		want := [4]int64{stats.Stripes, stats.Mismatches, stats.RepairedData + stats.RepairedParity, stats.BytesRead}
		if e.Src != obs.SrcLogical || e.Zone != -1 || [4]int64{e.A, e.B, e.C, e.D} != want {
			t.Errorf("scrub event %+v, want src %d zone -1 counts %v", e, obs.SrcLogical, want)
		}
	})
}

func TestRateLimitBoundsScrubRate(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		v, _ := newVol(t, c)
		mustWrite(t, v, 0, int(v.ZoneSectors()))

		// Unthrottled baseline.
		fast := New(Config{Clock: c, Volume: v, Repair: true})
		fstats, err := fast.RunPass()
		if err != nil {
			t.Fatalf("RunPass: %v", err)
		}
		if fstats.BytesRead == 0 {
			t.Fatal("pass read nothing")
		}

		// Throttled: elapsed must be at least BytesRead/rate (minus the
		// one-second initial burst allowance).
		rate := int64(1 << 20) // 1 MiB/s
		slow := New(Config{Clock: c, Volume: v, Repair: true, RateLimit: rate})
		sstats, err := slow.RunPass()
		if err != nil {
			t.Fatalf("RunPass (limited): %v", err)
		}
		wantMin := time.Duration(float64(sstats.BytesRead-rate) / float64(rate) * float64(time.Second))
		if sstats.Elapsed < wantMin {
			t.Errorf("limited pass took %v, want >= %v (%d bytes at %d B/s)",
				sstats.Elapsed, wantMin, sstats.BytesRead, rate)
		}
		if fstats.Elapsed >= wantMin {
			t.Errorf("unthrottled pass took %v, expected well under %v", fstats.Elapsed, wantMin)
		}
	})
}

func TestBackgroundScrubStartStop(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		v, devs := newVol(t, c)
		mustWrite(t, v, 0, int(v.ZoneSectors()))
		dev, pba := dataSector(0, 3, 1, 4)
		if err := devs[dev].CorruptSector(pba); err != nil {
			t.Fatalf("CorruptSector: %v", err)
		}

		s := New(Config{
			Clock: c, Volume: v, Repair: true,
			PassInterval: 10 * time.Millisecond,
		})
		s.Start()
		c.Sleep(500 * time.Millisecond)
		s.Stop()

		s.mu.Lock()
		passes, totals := s.passes, s.totals
		s.mu.Unlock()
		if passes == 0 {
			t.Fatal("background scrubber completed no passes")
		}
		if totals.RepairedData == 0 {
			t.Error("background scrubber did not repair the injected rot")
		}
		checkRead(t, v, 0, int(v.ZoneSectors()))

		// Restart works.
		s.Start()
		c.Sleep(50 * time.Millisecond)
		s.Stop()
	})
}

func TestMonitorStateMachine(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		v, devs := newVol(t, c)
		mustWrite(t, v, 0, int(v.ZoneSectors()))

		m := NewMonitor(MonitorConfig{
			Clock: c, Volume: v,
			SuspectThreshold: 2, FailThreshold: 5,
		})
		if m.State(1) != Healthy {
			t.Fatalf("initial state = %v, want healthy", m.State(1))
		}

		// Latent read errors on device of unit 0, stripe 0: each
		// foreground read of that range fails (and is read-repaired),
		// incrementing the device's error counter.
		dev, pba := dataSector(0, 0, 0, 0)
		if err := devs[dev].InjectReadError(pba); err != nil {
			t.Fatalf("InjectReadError: %v", err)
		}
		buf := make([]byte, 16*v.SectorSize())
		read := func() {
			if err := v.Read(0, buf); err != nil {
				t.Fatalf("Read: %v", err)
			}
		}

		read()
		read()
		m.Poll()
		if m.State(dev) != Suspect {
			re, corr := v.DeviceErrorCounters(dev)
			t.Fatalf("after 2 errors (re=%d corr=%d): state = %v, want suspect", re, corr, m.State(dev))
		}

		for i := 0; i < 3; i++ {
			read()
		}
		m.Poll()
		if m.State(dev) != Failed {
			t.Fatalf("after 5 errors: state = %v, want failed", m.State(dev))
		}
		if v.Degraded() != dev {
			t.Fatalf("Degraded() = %d, want %d (auto-fail)", v.Degraded(), dev)
		}
		// Reads still work, served degraded.
		checkRead(t, v, 0, int(v.ZoneSectors()))
	})
}

func TestMonitorAutoRebuild(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		v, devs := newVol(t, c)
		mustWrite(t, v, 0, int(v.ZoneSectors()))

		rebuilt := c.NewFuture()
		var m *Monitor
		m = NewMonitor(MonitorConfig{
			Clock: c, Volume: v,
			SuspectThreshold: 1, FailThreshold: 3,
			Interval: 10 * time.Millisecond,
			OnFail: func(dev int) {
				nd := zns.NewDevice(c, testDevConfig())
				if _, err := v.ReplaceDevice(nd); err != nil {
					rebuilt.Complete(err)
					return
				}
				m.MarkReplaced(dev)
				rebuilt.Complete(nil)
			},
		})

		dev, pba := dataSector(0, 1, 2, 5)
		if err := devs[dev].InjectReadError(pba); err != nil {
			t.Fatalf("InjectReadError: %v", err)
		}
		// Drive the device's error counter over the fail threshold with
		// repeated foreground reads of the latent unit (the sector stays
		// latent: foreground read-repair reconstructs but does not
		// relocate). At the first error the device is only suspect.
		buf := make([]byte, 16*v.SectorSize())
		lba := int64(1)*v.StripeSectors() + int64(2)*testSU // LBA of the latent unit
		for i := 0; i < 3; i++ {
			if err := v.Read(lba, buf); err != nil {
				t.Fatalf("Read: %v", err)
			}
			if i == 0 {
				m.Poll()
				if m.State(dev) != Suspect || v.Degraded() >= 0 {
					t.Fatalf("after 1 error: state %v, Degraded() %d, want suspect on a whole array", m.State(dev), v.Degraded())
				}
			}
		}

		m.Start()
		if err := rebuilt.Wait(); err != nil {
			t.Fatalf("auto-rebuild: %v", err)
		}
		m.Stop()

		if v.Degraded() >= 0 {
			t.Fatalf("array still degraded after rebuild: %d", v.Degraded())
		}
		if m.State(dev) != Healthy {
			t.Errorf("state after MarkReplaced = %v, want healthy", m.State(dev))
		}
		checkRead(t, v, 0, int(v.ZoneSectors()))
	})
}

func TestMonitorHoldsSecondFailure(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		v, devs := newVol(t, c)
		mustWrite(t, v, 0, int(v.ZoneSectors()))

		m := NewMonitor(MonitorConfig{
			Clock: c, Volume: v,
			SuspectThreshold: 1, FailThreshold: 2,
		})

		// Fail one device administratively.
		if err := v.FailDevice(0); err != nil {
			t.Fatalf("FailDevice: %v", err)
		}
		// Push a second device over the fail threshold.
		dev, pba := dataSector(0, 0, 0, 0)
		if dev == 0 {
			dev, pba = dataSector(0, 0, 1, 0)
		}
		if err := devs[dev].InjectReadError(pba); err != nil {
			t.Fatalf("InjectReadError: %v", err)
		}
		buf := make([]byte, v.SectorSize())
		for i := 0; i < 3; i++ {
			_ = v.Read(0, buf)
		}
		m.Poll()
		if m.State(dev) == Failed {
			t.Fatal("monitor failed a second device on a degraded array")
		}
		if v.Degraded() != 0 {
			t.Fatalf("Degraded() = %d, want 0 (only the admin failure)", v.Degraded())
		}
	})
}
