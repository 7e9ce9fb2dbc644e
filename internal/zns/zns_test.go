package zns

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"raizn/internal/vclock"
)

// testConfig returns a small, fast device configuration.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.NumZones = 8
	cfg.ZoneSize = 64
	cfg.ZoneCap = 48
	cfg.MaxOpenZones = 3
	cfg.MaxActiveZones = 5
	return cfg
}

// run executes fn against a fresh device inside a simulation.
func run(t *testing.T, cfg Config, fn func(c *vclock.Clock, d *Device)) {
	t.Helper()
	c := vclock.New()
	d := NewDevice(c, cfg)
	c.Run(func() { fn(c, d) })
}

// pattern returns n sectors of data filled with deterministic bytes
// derived from tag.
func pattern(cfg Config, nSectors int, tag byte) []byte {
	b := make([]byte, nSectors*cfg.SectorSize)
	for i := range b {
		b[i] = tag ^ byte(i)
	}
	return b
}

func mustWrite(t *testing.T, d *Device, sector int64, data []byte, flags Flag) {
	t.Helper()
	if err := d.Write(sector, data, flags).Wait(); err != nil {
		t.Fatalf("write at %d: %v", sector, err)
	}
}

func mustRead(t *testing.T, d *Device, sector int64, n int) []byte {
	t.Helper()
	buf := make([]byte, n*d.Config().SectorSize)
	if err := d.Read(sector, buf).Wait(); err != nil {
		t.Fatalf("read at %d: %v", sector, err)
	}
	return buf
}

func TestWriteReadRoundTrip(t *testing.T) {
	cfg := testConfig()
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		data := pattern(cfg, 4, 0xAB)
		mustWrite(t, d, 0, data, 0)
		got := mustRead(t, d, 0, 4)
		if !bytes.Equal(got, data) {
			t.Error("read data does not match written data")
		}
	})
}

func TestSequentialWriteConstraint(t *testing.T) {
	cfg := testConfig()
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		mustWrite(t, d, 0, pattern(cfg, 2, 1), 0)
		// Skipping ahead violates the write pointer.
		if err := d.Write(4, pattern(cfg, 1, 2), 0).Wait(); err != ErrNotSequential {
			t.Errorf("gap write error = %v, want ErrNotSequential", err)
		}
		// Rewinding also violates it.
		if err := d.Write(0, pattern(cfg, 1, 2), 0).Wait(); err != ErrNotSequential {
			t.Errorf("rewind write error = %v, want ErrNotSequential", err)
		}
		// The write pointer itself is fine.
		mustWrite(t, d, 2, pattern(cfg, 1, 3), 0)
	})
}

func TestWritePointerAdvancesAtSubmit(t *testing.T) {
	cfg := testConfig()
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		// Submit two back-to-back writes without waiting: the second
		// must be accepted because the WP advanced at submit.
		f1 := d.Write(0, pattern(cfg, 2, 1), 0)
		f2 := d.Write(2, pattern(cfg, 2, 2), 0)
		if err := vclock.WaitAll(f1, f2); err != nil {
			t.Fatalf("pipelined writes: %v", err)
		}
	})
}

func TestZoneBoundaryViolations(t *testing.T) {
	cfg := testConfig()
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		// Fill to one sector below cap, then try to write 2 sectors.
		mustWrite(t, d, 0, pattern(cfg, int(cfg.ZoneCap)-1, 1), 0)
		if err := d.Write(cfg.ZoneCap-1, pattern(cfg, 2, 2), 0).Wait(); err != ErrOutOfRange {
			t.Errorf("cap overflow error = %v, want ErrOutOfRange", err)
		}
		// Crossing from the gap into the next zone.
		if err := d.Write(cfg.ZoneSize-1, pattern(cfg, 2, 2), 0).Wait(); err != ErrZoneBoundary {
			t.Errorf("boundary cross error = %v, want ErrZoneBoundary", err)
		}
		// Entirely outside the device.
		if err := d.Write(d.NumSectors(), pattern(cfg, 1, 2), 0).Wait(); err != ErrOutOfRange {
			t.Errorf("out of range error = %v, want ErrOutOfRange", err)
		}
	})
}

func TestUnalignedIO(t *testing.T) {
	cfg := testConfig()
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		if err := d.Write(0, make([]byte, 100), 0).Wait(); err != ErrUnaligned {
			t.Errorf("unaligned write error = %v", err)
		}
		if err := d.Write(0, nil, 0).Wait(); err != ErrUnaligned {
			t.Errorf("empty write error = %v", err)
		}
		if err := d.Read(0, make([]byte, 1)).Wait(); err != ErrUnaligned {
			t.Errorf("unaligned read error = %v", err)
		}
	})
}

func TestZoneStateMachine(t *testing.T) {
	cfg := testConfig()
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		if st := d.Zone(0).State; st != ZoneEmpty {
			t.Errorf("initial state = %v, want empty", st)
		}
		mustWrite(t, d, 0, pattern(cfg, 1, 1), 0)
		if st := d.Zone(0).State; st != ZoneOpen {
			t.Errorf("after write state = %v, want open", st)
		}
		// Only a power cut closes a zone: it keeps the FUA-persisted sector.
		mustWrite(t, d, 1, pattern(cfg, 1, 2), FUA)
		d.PowerLoss(nil)
		if st := d.Zone(0).State; st != ZoneClosed {
			t.Errorf("after power cut state = %v, want closed", st)
		}
		// Writing reopens.
		mustWrite(t, d, 2, pattern(cfg, int(cfg.ZoneCap)-2, 2), 0)
		if st := d.Zone(0).State; st != ZoneFull {
			t.Errorf("after filling state = %v, want full", st)
		}
		if err := d.ResetZone(0).Wait(); err != nil {
			t.Fatal(err)
		}
		if st := d.Zone(0).State; st != ZoneEmpty {
			t.Errorf("after reset state = %v, want empty", st)
		}
		if wp := d.Zone(0).WP; wp != 0 {
			t.Errorf("after reset WP = %d, want 0", wp)
		}
	})
}

func TestFullZoneRejectsWrites(t *testing.T) {
	cfg := testConfig()
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		mustWrite(t, d, 0, pattern(cfg, int(cfg.ZoneCap), 1), 0)
		if err := d.Write(cfg.ZoneCap, pattern(cfg, 1, 2), 0).Wait(); err == nil {
			t.Error("write into the cap..size gap should fail")
		}
	})
}

func TestMaxOpenZones(t *testing.T) {
	cfg := testConfig() // MaxOpenZones = 3
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		for z := 0; z < 3; z++ {
			mustWrite(t, d, d.ZoneStart(z), pattern(cfg, 1, byte(z)), 0)
		}
		if err := d.Write(d.ZoneStart(3), pattern(cfg, 1, 9), 0).Wait(); err != ErrTooManyOpen {
			t.Errorf("4th open error = %v, want ErrTooManyOpen", err)
		}
		// Finishing one frees a slot.
		if err := d.FinishZone(0).Wait(); err != nil {
			t.Fatal(err)
		}
		mustWrite(t, d, d.ZoneStart(3), pattern(cfg, 1, 9), 0)
		if n := d.OpenZoneCount(); n != 3 {
			t.Errorf("open count = %d, want 3", n)
		}
	})
}

func TestMaxActiveZones(t *testing.T) {
	cfg := testConfig() // MaxOpen = 3, MaxActive = 5
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		// Three zones closed by a power cut stay active; two more open.
		for z := 0; z < 3; z++ {
			mustWrite(t, d, d.ZoneStart(z), pattern(cfg, 1, byte(z)), FUA)
		}
		d.PowerLoss(nil)
		for z := 3; z < 5; z++ {
			mustWrite(t, d, d.ZoneStart(z), pattern(cfg, 1, byte(z)), 0)
		}
		if err := d.Write(d.ZoneStart(5), pattern(cfg, 1, 9), 0).Wait(); err != ErrTooManyActive {
			t.Errorf("6th active error = %v, want ErrTooManyActive", err)
		}
		// Filling one zone to full frees an active slot.
		z0 := d.Zone(0)
		rest := int(cfg.ZoneCap - (z0.WP - d.ZoneStart(0)))
		mustWrite(t, d, z0.WP, pattern(cfg, rest, 1), 0)
		mustWrite(t, d, d.ZoneStart(5), pattern(cfg, 1, 9), 0)
	})
}

func TestZoneAppend(t *testing.T) {
	cfg := testConfig()
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		s1, f1 := d.Append(2, pattern(cfg, 2, 1), 0)
		s2, f2 := d.Append(2, pattern(cfg, 3, 2), 0)
		if err := vclock.WaitAll(f1, f2); err != nil {
			t.Fatal(err)
		}
		if s1 != d.ZoneStart(2) || s2 != d.ZoneStart(2)+2 {
			t.Errorf("append sectors = %d, %d", s1, s2)
		}
		got := mustRead(t, d, s2, 3)
		if !bytes.Equal(got, pattern(cfg, 3, 2)) {
			t.Error("appended data mismatch")
		}
	})
}

func TestReadBeyondWP(t *testing.T) {
	cfg := testConfig()
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		mustWrite(t, d, 0, pattern(cfg, 2, 1), 0)
		buf := make([]byte, cfg.SectorSize)
		if err := d.Read(2, buf).Wait(); err != ErrReadBeyondWP {
			t.Errorf("read beyond WP error = %v", err)
		}
	})
}

func TestFinishZoneReadsZeroes(t *testing.T) {
	cfg := testConfig()
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		data := pattern(cfg, 2, 7)
		mustWrite(t, d, 0, data, 0)
		if err := d.FinishZone(0).Wait(); err != nil {
			t.Fatal(err)
		}
		if st := d.Zone(0).State; st != ZoneFull {
			t.Errorf("finished state = %v, want full", st)
		}
		got := mustRead(t, d, 0, 4)
		if !bytes.Equal(got[:2*cfg.SectorSize], data) {
			t.Error("written prefix mismatch after finish")
		}
		if !bytes.Equal(got[2*cfg.SectorSize:], make([]byte, 2*cfg.SectorSize)) {
			t.Error("unwritten tail of finished zone should read zeroes")
		}
		// Finished zones reject writes.
		if err := d.Write(2, pattern(cfg, 1, 1), 0).Wait(); err != ErrZoneFull {
			t.Errorf("write to finished zone error = %v", err)
		}
	})
}

// TestFinishedZoneReportsItsFill pins ZoneDesc.WP for a zone finished
// early: full, with the write pointer where the writes left it, not at the
// zone's capacity (raizn reads a finished zone's fill from it).
func TestFinishedZoneReportsItsFill(t *testing.T) {
	cfg := testConfig()
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		mustWrite(t, d, d.ZoneStart(1), pattern(cfg, 5, 3), 0)
		if err := d.FinishZone(1).Wait(); err != nil {
			t.Fatal(err)
		}
		zd := d.Zone(1)
		if zd.State != ZoneFull || zd.WP != d.ZoneStart(1)+5 {
			t.Errorf("finished zone: state %v, WP %d; want full, WP %d (start + 5, cap %d)", zd.State, zd.WP, d.ZoneStart(1)+5, cfg.ZoneCap)
		}
	})
}

func TestPowerLossDropsUnflushedData(t *testing.T) {
	cfg := testConfig()
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		mustWrite(t, d, 0, pattern(cfg, 4, 1), 0)
		if err := d.Flush().Wait(); err != nil {
			t.Fatal(err)
		}
		mustWrite(t, d, 4, pattern(cfg, 4, 2), 0) // unflushed

		d.PowerLoss(nil) // pessimistic: keep only flushed data
		zd := d.Zone(0)
		if zd.WP != 4 {
			t.Errorf("post-loss WP = %d, want 4", zd.WP)
		}
		if zd.State != ZoneClosed {
			t.Errorf("post-loss state = %v, want closed", zd.State)
		}
		got := mustRead(t, d, 0, 4)
		if !bytes.Equal(got, pattern(cfg, 4, 1)) {
			t.Error("flushed data corrupted by power loss")
		}
	})
}

func TestPowerLossPrefixProperty(t *testing.T) {
	cfg := testConfig()
	for seed := int64(0); seed < 20; seed++ {
		run(t, cfg, func(c *vclock.Clock, d *Device) {
			mustWrite(t, d, 0, pattern(cfg, 3, 1), 0)
			if err := d.Flush().Wait(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				mustWrite(t, d, int64(3+i*2), pattern(cfg, 2, byte(2+i)), 0)
			}
			d.PowerLoss(rand.New(rand.NewSource(seed)))
			zd := d.Zone(0)
			if zd.WP < 3 {
				t.Errorf("seed %d: flushed prefix lost (WP=%d)", seed, zd.WP)
			}
			if zd.WP > 13 {
				t.Errorf("seed %d: WP=%d beyond written data", seed, zd.WP)
			}
			// Surviving data must be intact.
			if zd.WP > 0 {
				got := mustRead(t, d, 0, int(zd.WP))
				want := pattern(cfg, 3, 1)
				for i := 0; i < 5; i++ {
					want = append(want, pattern(cfg, 2, byte(2+i))...)
				}
				if !bytes.Equal(got, want[:len(got)]) {
					t.Errorf("seed %d: surviving prefix corrupted", seed)
				}
			}
		})
	}
}

func TestPowerLossAtDeterministic(t *testing.T) {
	cfg := testConfig()
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		mustWrite(t, d, 0, pattern(cfg, 8, 1), 0)
		mustWrite(t, d, d.ZoneStart(1), pattern(cfg, 8, 2), 0)
		d.PowerLossAt(map[int]int64{0: 5, 1: 0})
		if wp := d.Zone(0).WP; wp != 5 {
			t.Errorf("zone0 WP = %d, want 5", wp)
		}
		if st := d.Zone(1).State; st != ZoneEmpty {
			t.Errorf("zone1 state = %v, want empty", st)
		}
	})
}

func TestPowerLossAtClampsToFlushed(t *testing.T) {
	cfg := testConfig()
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		mustWrite(t, d, 0, pattern(cfg, 4, 1), 0)
		if err := d.Flush().Wait(); err != nil {
			t.Fatal(err)
		}
		// Requesting a cut below the flushed prefix must be clamped up.
		d.PowerLossAt(map[int]int64{0: 1})
		if wp := d.Zone(0).WP; wp != 4 {
			t.Errorf("WP = %d, want flushed 4", wp)
		}
	})
}

func TestFUAWritePersists(t *testing.T) {
	cfg := testConfig()
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		mustWrite(t, d, 0, pattern(cfg, 2, 1), 0)   // volatile
		mustWrite(t, d, 2, pattern(cfg, 2, 2), FUA) // persists prefix too
		d.PowerLoss(nil)
		if wp := d.Zone(0).WP; wp != 4 {
			t.Errorf("WP after FUA + power loss = %d, want 4", wp)
		}
	})
}

// TestDeviceRejectsPreflush: Preflush is the array's flag. A device write,
// gathered write or append carrying it fails at submit and changes
// nothing: no write pointer moves, no command is counted, nothing persists.
func TestDeviceRejectsPreflush(t *testing.T) {
	cfg := testConfig()
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		mustWrite(t, d, d.ZoneStart(1), pattern(cfg, 3, 1), 0) // volatile, other zone
		for _, fl := range []Flag{Preflush, Preflush | FUA} {
			if err := d.Write(0, pattern(cfg, 1, 2), fl).Wait(); err != ErrPreflush {
				t.Errorf("write with %b: %v, want ErrPreflush", fl, err)
			}
			segs := [][]byte{pattern(cfg, 1, 3), pattern(cfg, 1, 4)}
			if err := d.Writev(0, segs, fl).Wait(); err != ErrPreflush {
				t.Errorf("writev with %b: %v, want ErrPreflush", fl, err)
			}
			if s, fut := d.Append(0, pattern(cfg, 1, 5), fl); s != -1 || fut.Wait() != ErrPreflush {
				t.Errorf("append with %b: sector %d, %v, want -1, ErrPreflush", fl, s, fut.Wait())
			}
		}
		if n := d.WriteCommands(); n != 1 {
			t.Errorf("write commands = %d, want 1", n)
		}
		if zd := d.Zone(0); zd.State != ZoneEmpty || zd.WP != 0 {
			t.Errorf("zone 0 = %+v, want empty", zd)
		}
		d.PowerLoss(nil)
		if wp := d.Zone(1).WP; wp != d.ZoneStart(1) {
			t.Errorf("zone 1 WP = %d, want %d: something flushed it", wp, d.ZoneStart(1))
		}
	})
}

func TestFinishedZoneSurvivesPowerLoss(t *testing.T) {
	cfg := testConfig()
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		mustWrite(t, d, 0, pattern(cfg, 2, 9), 0)
		if err := d.FinishZone(0).Wait(); err != nil {
			t.Fatal(err)
		}
		d.PowerLoss(nil)
		if st := d.Zone(0).State; st != ZoneFull {
			t.Errorf("finished zone state after power loss = %v, want full", st)
		}
		got := mustRead(t, d, 0, 2)
		if !bytes.Equal(got, pattern(cfg, 2, 9)) {
			t.Error("finished zone data lost")
		}
	})
}

func TestInflightIOCompletesWithPowerLoss(t *testing.T) {
	cfg := testConfig()
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		fut := d.Write(0, pattern(cfg, 4, 1), 0)
		d.PowerLoss(nil) // before the write's completion event fires
		if err := fut.Wait(); err != ErrPowerLoss {
			t.Errorf("in-flight write error = %v, want ErrPowerLoss", err)
		}
	})
}

func TestDeviceFail(t *testing.T) {
	cfg := testConfig()
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		mustWrite(t, d, 0, pattern(cfg, 1, 1), 0)
		d.Fail()
		if !d.Failed() {
			t.Error("Failed() = false")
		}
		if err := d.Write(1, pattern(cfg, 1, 1), 0).Wait(); err != ErrDeviceFailed {
			t.Errorf("write error = %v", err)
		}
		if err := d.Read(0, make([]byte, cfg.SectorSize)).Wait(); err != ErrDeviceFailed {
			t.Errorf("read error = %v", err)
		}
		if err := d.Flush().Wait(); err != ErrDeviceFailed {
			t.Errorf("flush error = %v", err)
		}
		if err := d.ResetZone(0).Wait(); err != ErrDeviceFailed {
			t.Errorf("reset error = %v", err)
		}
	})
}

func TestWriteLatencyModel(t *testing.T) {
	cfg := testConfig()
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		start := c.Now()
		mustWrite(t, d, 0, pattern(cfg, 1, 1), 0)
		elapsed := c.Now() - start
		xfer := time.Duration(float64(cfg.SectorSize) / cfg.WriteBandwidth * float64(time.Second))
		want := cfg.WriteOpOverhead + xfer + cfg.WriteLatency
		if elapsed != want {
			t.Errorf("single write latency = %v, want %v", elapsed, want)
		}
	})
}

// TestResetLeavesWritePipeFree: a write to zone B issued just after a
// reset of zone A completes in write time, not behind the reset, and the
// reset itself completes ResetLatency after submit.
func TestResetLeavesWritePipeFree(t *testing.T) {
	cfg := testConfig()
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		mustWrite(t, d, d.ZoneStart(1), pattern(cfg, 4, 1), 0)
		start := c.Now()
		var resetAt, writeAt time.Duration
		reset := d.ResetZone(1)
		reset.Subscribe(func(error) { resetAt = c.Now() - start })
		write := d.Write(d.ZoneStart(0), pattern(cfg, 1, 2), 0)
		write.Subscribe(func(error) { writeAt = c.Now() - start })
		if err := vclock.WaitAll(reset, write); err != nil {
			t.Fatal(err)
		}
		xfer := time.Duration(float64(cfg.SectorSize) / cfg.WriteBandwidth * float64(time.Second))
		if want := cfg.WriteOpOverhead + xfer + cfg.WriteLatency; writeAt != want {
			t.Errorf("write behind a reset of another zone took %v, want the write time %v", writeAt, want)
		}
		if resetAt != cfg.ResetLatency {
			t.Errorf("reset took %v, want %v", resetAt, cfg.ResetLatency)
		}
	})
}

func TestBandwidthSerialization(t *testing.T) {
	cfg := testConfig()
	cfg.ZoneCap = 48
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		// Submit 16 writes back to back; total time must be at least
		// total bytes / bandwidth (the pipe serializes transfers).
		const n = 16
		futs := make([]*vclock.Future, n)
		for i := 0; i < n; i++ {
			futs[i] = d.Write(int64(i*2), pattern(cfg, 2, byte(i)), 0)
		}
		start := c.Now()
		if err := vclock.WaitAll(futs...); err != nil {
			t.Fatal(err)
		}
		elapsed := c.Now() - start
		bytesTotal := n * 2 * cfg.SectorSize
		minTime := time.Duration(float64(bytesTotal) / cfg.WriteBandwidth * float64(time.Second))
		if elapsed < minTime {
			t.Errorf("elapsed %v < serialized minimum %v", elapsed, minTime)
		}
	})
}

func TestReadWritePipesIndependent(t *testing.T) {
	cfg := testConfig()
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		mustWrite(t, d, 0, pattern(cfg, 8, 1), 0)
		// A big write queue should not delay reads.
		var wfuts []*vclock.Future
		for i := 0; i < 8; i++ {
			wfuts = append(wfuts, d.Write(int64(8+i*4), pattern(cfg, 4, 2), 0))
		}
		start := c.Now()
		buf := make([]byte, cfg.SectorSize)
		if err := d.Read(0, buf).Wait(); err != nil {
			t.Fatal(err)
		}
		readTime := c.Now() - start
		xfer := time.Duration(float64(cfg.SectorSize) / cfg.ReadBandwidth * float64(time.Second))
		want := cfg.ReadOpOverhead + xfer + cfg.ReadLatency
		if readTime != want {
			t.Errorf("read under write load took %v, want %v", readTime, want)
		}
		vclock.WaitAll(wfuts...)
	})
}

func TestCounters(t *testing.T) {
	cfg := testConfig()
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		mustWrite(t, d, 0, pattern(cfg, 3, 1), 0)
		mustRead(t, d, 0, 2)
		d.Flush().Wait()
		d.ResetZone(0).Wait()
		w, r, f, rs := d.Counters()
		if w != int64(3*cfg.SectorSize) || r != int64(2*cfg.SectorSize) || f != 1 || rs != 1 {
			t.Errorf("counters = %d %d %d %d", w, r, f, rs)
		}
	})
}

func TestDiscardDataMode(t *testing.T) {
	cfg := testConfig()
	cfg.DiscardData = true
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		mustWrite(t, d, 0, pattern(cfg, 2, 1), 0)
		got := mustRead(t, d, 0, 2)
		if !bytes.Equal(got, make([]byte, 2*cfg.SectorSize)) {
			t.Error("discard mode should read zeroes")
		}
	})
}

func TestReportZones(t *testing.T) {
	cfg := testConfig()
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		mustWrite(t, d, d.ZoneStart(2), pattern(cfg, 5, 1), 0)
		zones := d.ReportZones()
		if len(zones) != cfg.NumZones {
			t.Fatalf("got %d zones", len(zones))
		}
		if zones[2].State != ZoneOpen || zones[2].WP != d.ZoneStart(2)+5 {
			t.Errorf("zone2 = %+v", zones[2])
		}
		if zones[0].State != ZoneEmpty {
			t.Errorf("zone0 = %+v", zones[0])
		}
	})
}

func TestResetEmptyZoneIsNoop(t *testing.T) {
	cfg := testConfig()
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		if err := d.ResetZone(3).Wait(); err != nil {
			t.Errorf("reset of empty zone: %v", err)
		}
	})
}

func TestFlushIsDurableAgainstExactCuts(t *testing.T) {
	// Property-style: after flush, PowerLossAt cannot roll back below
	// the flushed point regardless of the requested cut.
	cfg := testConfig()
	for cut := int64(0); cut <= 6; cut++ {
		run(t, cfg, func(c *vclock.Clock, d *Device) {
			mustWrite(t, d, 0, pattern(cfg, 3, 1), 0)
			d.Flush().Wait()
			mustWrite(t, d, 3, pattern(cfg, 3, 2), 0)
			d.PowerLossAt(map[int]int64{0: cut})
			wp := d.Zone(0).WP
			if wp < 3 {
				t.Errorf("cut %d: WP=%d below flushed prefix", cut, wp)
			}
		})
	}
}

// TestFlushSnapshotsOnlyDirtyZones: a flush captures the write pointer of
// the zones holding unflushed extents and nothing else, so flushing a
// clean device allocates no snapshot at all.
func TestFlushSnapshotsOnlyDirtyZones(t *testing.T) {
	cfg := testConfig()
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		mustWrite(t, d, 0, pattern(cfg, 2, 1), 0)
		mustWrite(t, d, d.ZoneStart(2), pattern(cfg, 3, 2), FUA) // persisted: clean
		mustWrite(t, d, d.ZoneStart(5), pattern(cfg, 1, 3), 0)
		d.mu.Lock()
		snap := d.snapshotWPsLocked()
		d.mu.Unlock()
		want := []zoneWP{{z: 0, wp: 2}, {z: 5, wp: 1}}
		if len(snap) != len(want) || snap[0] != want[0] || snap[1] != want[1] {
			t.Fatalf("snapshot = %v, want %v", snap, want)
		}
		if err := d.Flush().Wait(); err != nil {
			t.Fatal(err)
		}
		d.mu.Lock()
		snap = d.snapshotWPsLocked()
		d.mu.Unlock()
		if snap != nil {
			t.Errorf("snapshot of a clean device = %v, want nil", snap)
		}
		d.PowerLoss(nil)
		for z, wp := range map[int]int64{0: 2, 2: 3, 5: 1} {
			if got := d.Zone(z).WP - d.ZoneStart(z); got != wp {
				t.Errorf("zone %d WP after flush + power loss = %d, want %d", z, got, wp)
			}
		}
	})
}
