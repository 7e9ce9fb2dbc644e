package blockdev

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"raizn/internal/vclock"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.NumSectors = 4096 // 16 MiB logical
	cfg.PagesPerBlock = 64
	return cfg
}

func run(t *testing.T, cfg Config, fn func(c *vclock.Clock, d *Device)) {
	t.Helper()
	c := vclock.New()
	d := NewDevice(c, cfg)
	c.Run(func() { fn(c, d) })
}

func pattern(cfg Config, nSectors int, tag byte) []byte {
	b := make([]byte, nSectors*cfg.SectorSize)
	for i := range b {
		b[i] = tag ^ byte(i)
	}
	return b
}

func mustWrite(t *testing.T, d *Device, sector int64, data []byte) {
	t.Helper()
	if err := d.Write(sector, data, 0).Wait(); err != nil {
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
		data := pattern(cfg, 8, 0x5C)
		mustWrite(t, d, 100, data)
		if got := mustRead(t, d, 100, 8); !bytes.Equal(got, data) {
			t.Error("read mismatch")
		}
	})
}

func TestOverwrite(t *testing.T) {
	cfg := testConfig()
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		mustWrite(t, d, 10, pattern(cfg, 4, 1))
		mustWrite(t, d, 10, pattern(cfg, 4, 2))
		mustWrite(t, d, 12, pattern(cfg, 1, 3))
		got := mustRead(t, d, 10, 4)
		want := pattern(cfg, 4, 2)
		copy(want[2*cfg.SectorSize:3*cfg.SectorSize], pattern(cfg, 1, 3))
		if !bytes.Equal(got, want) {
			t.Error("overwrite result mismatch")
		}
	})
}

func TestUnwrittenReadsZero(t *testing.T) {
	cfg := testConfig()
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		if got := mustRead(t, d, 0, 4); !bytes.Equal(got, make([]byte, 4*cfg.SectorSize)) {
			t.Error("unwritten sectors should read zero")
		}
	})
}

func TestBoundsAndAlignment(t *testing.T) {
	cfg := testConfig()
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		if err := d.Write(cfg.NumSectors, pattern(cfg, 1, 1), 0).Wait(); err != ErrOutOfRange {
			t.Errorf("oob write error = %v", err)
		}
		if err := d.Write(cfg.NumSectors-1, pattern(cfg, 2, 1), 0).Wait(); err != ErrOutOfRange {
			t.Errorf("straddling write error = %v", err)
		}
		if err := d.Write(0, make([]byte, 5), 0).Wait(); err != ErrUnaligned {
			t.Errorf("unaligned write error = %v", err)
		}
		if err := d.Read(-1, make([]byte, cfg.SectorSize)).Wait(); err != ErrOutOfRange {
			t.Errorf("negative read error = %v", err)
		}
	})
}

// fillDevice writes the whole logical space once, sequentially.
func fillDevice(t *testing.T, d *Device, tag byte) {
	t.Helper()
	cfg := d.Config()
	const chunk = 64
	for s := int64(0); s < cfg.NumSectors; s += chunk {
		mustWrite(t, d, s, pattern(cfg, chunk, tag))
	}
}

// fillInterleaved writes the whole logical space by cycling across five
// regions (the paper's Figure 10 phase-1 pattern), so every erase block
// ends up holding pages from five distinct LBA regions.
func fillInterleaved(t *testing.T, d *Device, tag byte) {
	t.Helper()
	cfg := d.Config()
	const chunk = 8
	regions := int64(5)
	regionSize := cfg.NumSectors / regions
	for off := int64(0); off < regionSize; off += chunk {
		for r := int64(0); r < regions; r++ {
			s := r*regionSize + off
			n := chunk
			if s+int64(n) > cfg.NumSectors {
				n = int(cfg.NumSectors - s)
			}
			if n > 0 {
				mustWrite(t, d, s, pattern(cfg, n, tag))
			}
		}
	}
	// Tail left over by integer division.
	for s := regions * regionSize; s < cfg.NumSectors; s += chunk {
		n := chunk
		if s+int64(n) > cfg.NumSectors {
			n = int(cfg.NumSectors - s)
		}
		mustWrite(t, d, s, pattern(cfg, n, tag))
	}
}

func TestSequentialOverwriteNeedsNoCopies(t *testing.T) {
	// A sequential overwrite of a sequentially filled device produces
	// fully-invalid victims: GC must erase but not copy.
	cfg := testConfig()
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		fillDevice(t, d, 1)
		fillDevice(t, d, 2)
		_, _, gcCopied, erases := d.Counters()
		if erases == 0 {
			t.Error("no erases during full overwrite")
		}
		if gcCopied != 0 {
			t.Errorf("GC copied %d pages; sequential overwrite should copy none", gcCopied)
		}
	})
}

func TestGCTriggersOnOverwrite(t *testing.T) {
	cfg := testConfig()
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		fillInterleaved(t, d, 1)
		_, _, gc0, _ := d.Counters()
		if gc0 != 0 {
			t.Errorf("GC ran during first fill: %d pages", gc0)
		}
		fillDevice(t, d, 2) // sequential overwrite of interleaved blocks
		_, _, gc1, erases := d.Counters()
		if gc1 == 0 || erases == 0 {
			t.Errorf("GC did not relocate (copied=%d erases=%d)", gc1, erases)
		}
		// Data must survive GC.
		if got := mustRead(t, d, 0, 64); !bytes.Equal(got, pattern(cfg, 64, 2)) {
			t.Error("data corrupted by GC")
		}
	})
}

func TestGCSlowsWrites(t *testing.T) {
	cfg := testConfig()
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		t0 := c.Now()
		fillDevice(t, d, 1)
		cleanTime := c.Now() - t0

		t1 := c.Now()
		fillDevice(t, d, 2)
		gcTime := c.Now() - t1
		if gcTime < cleanTime*3/2 {
			t.Errorf("overwrite with GC took %v, clean fill %v; expected significant slowdown", gcTime, cleanTime)
		}
	})
}

func TestRandomOverwriteConsistency(t *testing.T) {
	// Property: after arbitrary overwrites (forcing plenty of GC), every
	// sector reads back its most recent write.
	cfg := testConfig()
	cfg.NumSectors = 1024
	cfg.PagesPerBlock = 32
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		rng := rand.New(rand.NewSource(7))
		shadow := make([]byte, cfg.NumSectors*int64(cfg.SectorSize))
		for i := 0; i < 3000; i++ {
			n := 1 + rng.Intn(8)
			s := rng.Int63n(cfg.NumSectors - int64(n) + 1)
			data := make([]byte, n*cfg.SectorSize)
			rng.Read(data)
			mustWrite(t, d, s, data)
			copy(shadow[s*int64(cfg.SectorSize):], data)
		}
		_, _, gc, _ := d.Counters()
		if gc == 0 {
			t.Fatal("test did not exercise GC")
		}
		got := mustRead(t, d, 0, int(cfg.NumSectors))
		if !bytes.Equal(got, shadow) {
			t.Error("device state diverged from shadow copy")
		}
	})
}

func TestWriteAmplificationAccounting(t *testing.T) {
	cfg := testConfig()
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		fillInterleaved(t, d, 1)
		if wa := d.WriteAmplification(); wa != 1 {
			t.Errorf("clean fill WA = %f, want 1", wa)
		}
		fillDevice(t, d, 2)
		if wa := d.WriteAmplification(); wa <= 1 {
			t.Errorf("post-overwrite WA = %f, want > 1", wa)
		}
	})
}

func TestPowerLossDropsUnflushed(t *testing.T) {
	cfg := testConfig()
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		mustWrite(t, d, 0, pattern(cfg, 2, 1))
		if err := d.Flush().Wait(); err != nil {
			t.Fatal(err)
		}
		mustWrite(t, d, 2, pattern(cfg, 2, 2))
		d.PowerLoss()
		got := mustRead(t, d, 0, 4)
		if !bytes.Equal(got[:2*cfg.SectorSize], pattern(cfg, 2, 1)) {
			t.Error("flushed data lost")
		}
		if !bytes.Equal(got[2*cfg.SectorSize:], make([]byte, 2*cfg.SectorSize)) {
			t.Error("unflushed data survived pessimistic power loss")
		}
	})
}

func TestFUAWriteSurvivesPowerLoss(t *testing.T) {
	cfg := testConfig()
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		if err := d.Write(5, pattern(cfg, 1, 9), FUA).Wait(); err != nil {
			t.Fatal(err)
		}
		d.PowerLoss()
		if got := mustRead(t, d, 5, 1); !bytes.Equal(got, pattern(cfg, 1, 9)) {
			t.Error("FUA write lost")
		}
	})
}

func TestDeviceFail(t *testing.T) {
	cfg := testConfig()
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		d.Fail()
		if err := d.Write(0, pattern(cfg, 1, 1), 0).Wait(); err != ErrDeviceFailed {
			t.Errorf("write error = %v", err)
		}
		if err := d.Read(0, make([]byte, cfg.SectorSize)).Wait(); err != ErrDeviceFailed {
			t.Errorf("read error = %v", err)
		}
	})
}

func TestLatencySpikesDuringGC(t *testing.T) {
	cfg := testConfig()
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		fillDevice(t, d, 1)
		// Measure a clean write latency baseline on a fresh region
		// overwrite vs. the worst-case write once GC starts.
		var worst time.Duration
		for s := int64(0); s < cfg.NumSectors; s += 64 {
			t0 := c.Now()
			mustWrite(t, d, s, pattern(cfg, 64, 2))
			if lat := c.Now() - t0; lat > worst {
				worst = lat
			}
		}
		base := cfg.WriteOpOverhead + time.Duration(float64(64*cfg.SectorSize)/cfg.WriteBandwidth*float64(time.Second)) + cfg.WriteLatency
		if worst < 3*base {
			t.Errorf("worst GC-era latency %v not much above base %v", worst, base)
		}
	})
}

func TestFreeBlocksNeverExhausted(t *testing.T) {
	f := func(seed int64) bool {
		cfg := testConfig()
		cfg.NumSectors = 512
		cfg.PagesPerBlock = 16
		ok := true
		c := vclock.New()
		d := NewDevice(c, cfg)
		c.Run(func() {
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				n := 1 + rng.Intn(16)
				s := rng.Int63n(cfg.NumSectors - int64(n) + 1)
				if err := d.Write(s, make([]byte, n*cfg.SectorSize), 0).Wait(); err != nil {
					ok = false
					return
				}
				if d.FreeBlocks() < 1 {
					ok = false
					return
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
