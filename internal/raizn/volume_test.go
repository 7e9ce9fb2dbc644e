package raizn

import (
	"bytes"
	"testing"

	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// testDevConfig returns a small ZNS device: 8 zones of 128 writable
// sectors, 3 of which RAIZN reserves for metadata (leaving 5 logical
// zones of 512 sectors over a 5-device array with su=16).
func testDevConfig() zns.Config {
	cfg := zns.DefaultConfig()
	cfg.NumZones = 8
	cfg.ZoneSize = 160
	cfg.ZoneCap = 128
	cfg.MaxOpenZones = 8
	cfg.MaxActiveZones = 10
	return cfg
}

func newTestDevices(clk *vclock.Clock, n int) []*zns.Device {
	devs := make([]*zns.Device, n)
	for i := range devs {
		devs[i] = zns.NewDevice(clk, testDevConfig())
	}
	return devs
}

// newOpenLimitedDevices returns test devices whose open-zone limit leaves
// the logged engine exactly open logical zones: the array derives its
// limit from the devices' less the metadata zones.
func newOpenLimitedDevices(clk *vclock.Clock, n, open int) []*zns.Device {
	cfg := testDevConfig()
	cfg.MaxOpenZones = open + metadataZones
	devs := make([]*zns.Device, n)
	for i := range devs {
		devs[i] = zns.NewDevice(clk, cfg)
	}
	return devs
}

// runVol creates a 5-device volume and runs fn inside a simulation.
func runVol(t *testing.T, fn func(c *vclock.Clock, v *Volume, devs []*zns.Device)) {
	t.Helper()
	c := vclock.New()
	c.Run(func() {
		devs := newTestDevices(c, 5)
		v, err := Create(c, devs, DefaultConfig())
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		fn(c, v, devs)
	})
}

// lbaPattern fills n sectors with bytes that identify their LBA, so any
// misrouting shows up as a data mismatch.
func lbaPattern(v *Volume, lba int64, nSectors int) []byte {
	ss := v.SectorSize()
	out := make([]byte, nSectors*ss)
	for i := 0; i < nSectors; i++ {
		cur := lba + int64(i)
		for j := 0; j < ss; j++ {
			out[i*ss+j] = byte(cur) ^ byte(j) ^ byte(cur>>8)
		}
	}
	return out
}

func mustWriteV(t *testing.T, v *Volume, lba int64, n int, flags zns.Flag) {
	t.Helper()
	if err := v.Write(lba, lbaPattern(v, lba, n), flags); err != nil {
		t.Fatalf("Write(%d, %d sectors): %v", lba, n, err)
	}
}

func checkReadV(t *testing.T, v *Volume, lba int64, n int) {
	t.Helper()
	buf := make([]byte, n*v.SectorSize())
	if err := v.Read(lba, buf); err != nil {
		t.Fatalf("Read(%d, %d sectors): %v", lba, n, err)
	}
	if !bytes.Equal(buf, lbaPattern(v, lba, n)) {
		t.Fatalf("Read(%d, %d sectors): data mismatch", lba, n)
	}
}

func TestCreateGeometry(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		if v.NumZones() != 5 {
			t.Errorf("NumZones = %d, want 5", v.NumZones())
		}
		if v.ZoneSectors() != 512 {
			t.Errorf("ZoneSectors = %d, want 512", v.ZoneSectors())
		}
		if v.StripeSectors() != 64 {
			t.Errorf("StripeSectors = %d, want 64", v.StripeSectors())
		}
		if v.NumSectors() != 2560 {
			t.Errorf("NumSectors = %d, want 2560", v.NumSectors())
		}
		if v.Degraded() != -1 {
			t.Errorf("new volume degraded = %d", v.Degraded())
		}
	})
}

func TestCreateRequiresThreeDevices(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		devs := newTestDevices(c, 2)
		if _, err := Create(c, devs, DefaultConfig()); err != ErrNotEnoughDevs {
			t.Errorf("Create with 2 devices: %v", err)
		}
	})
}

func TestWriteReadFullStripe(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 64, 0) // exactly one stripe
		checkReadV(t, v, 0, 64)
	})
}

func TestWriteReadSubStripeUnit(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		// Many small sequential writes (4 KiB each).
		for i := int64(0); i < 40; i++ {
			mustWriteV(t, v, i, 1, 0)
		}
		checkReadV(t, v, 0, 40)
		// Read at odd offsets/lengths.
		checkReadV(t, v, 7, 9)
		checkReadV(t, v, 15, 17)
		checkReadV(t, v, 39, 1)
	})
}

func TestWriteReadWholeZone(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		zs := v.ZoneSectors()
		mustWriteV(t, v, 0, int(zs), 0)
		checkReadV(t, v, 0, int(zs))
		if st := v.Zone(0).State; st != zns.ZoneFull {
			t.Errorf("zone state = %v, want full", st)
		}
		// The full zone rejects further writes; the next zone accepts
		// its first write.
		if err := v.Write(zs-1, lbaPattern(v, zs-1, 1), 0); err != ErrZoneFull && err != ErrNotSequential {
			t.Errorf("write into full zone error = %v", err)
		}
		mustWriteV(t, v, zs, 1, 0)
	})
}

func TestWriteCrossStripeBoundaries(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		// Irregular sizes that cross unit and stripe boundaries.
		sizes := []int{5, 11, 16, 33, 64, 3, 60, 64} // totals 256 = full zone
		lba := int64(0)
		for _, n := range sizes {
			mustWriteV(t, v, lba, n, 0)
			lba += int64(n)
		}
		checkReadV(t, v, 0, 256)
	})
}

func TestSequentialityEnforced(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 4, 0)
		if err := v.Write(8, lbaPattern(v, 8, 1), 0); err != ErrNotSequential {
			t.Errorf("gap write error = %v", err)
		}
		if err := v.Write(0, lbaPattern(v, 0, 1), 0); err != ErrNotSequential {
			t.Errorf("rewind write error = %v", err)
		}
	})
}

func TestZoneBoundaryRejected(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		zs := v.ZoneSectors()
		mustWriteV(t, v, 0, int(zs)-2, 0)
		if err := v.Write(zs-2, lbaPattern(v, zs-2, 4), 0); err != ErrZoneBoundary {
			t.Errorf("cross-zone write error = %v", err)
		}
	})
}

func TestReadBeyondWP(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 4, 0)
		buf := make([]byte, 2*v.SectorSize())
		if err := v.Read(4, buf); err != ErrReadBeyondWP {
			t.Errorf("read beyond WP error = %v", err)
		}
	})
}

func TestMultipleZonesIndependent(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		zs := v.ZoneSectors()
		for z := int64(0); z < 3; z++ {
			mustWriteV(t, v, z*zs, 20, 0)
		}
		for z := int64(0); z < 3; z++ {
			checkReadV(t, v, z*zs, 20)
		}
	})
}

func TestPipelinedWrites(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		var futs []*vclock.Future
		for off := int64(0); off < v.ZoneSectors(); off += 8 {
			futs = append(futs, v.SubmitWrite(off, lbaPattern(v, off, 8), 0))
		}
		if err := vclock.WaitAll(futs...); err != nil {
			t.Fatalf("pipelined writes: %v", err)
		}
		checkReadV(t, v, 0, int(v.ZoneSectors()))
	})
}

func TestZoneResetAndRewrite(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 100, 0)
		gen0 := v.Generation(0)
		if err := v.ResetZone(0); err != nil {
			t.Fatalf("ResetZone: %v", err)
		}
		if st := v.Zone(0).State; st != zns.ZoneEmpty {
			t.Errorf("state after reset = %v", st)
		}
		if g := v.Generation(0); g != gen0+1 {
			t.Errorf("generation after reset = %d, want %d", g, gen0+1)
		}
		// Zone is writable from 0 again.
		mustWriteV(t, v, 0, 30, 0)
		checkReadV(t, v, 0, 30)
	})
}

func TestResetEmptyZoneNoop(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		gen0 := v.Generation(2)
		if err := v.ResetZone(2); err != nil {
			t.Fatal(err)
		}
		if g := v.Generation(2); g != gen0 {
			t.Errorf("generation changed on empty reset: %d -> %d", gen0, g)
		}
	})
}

func TestFinishZone(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 37, 0) // partial stripe tail
		if err := v.FinishZone(0); err != nil {
			t.Fatalf("FinishZone: %v", err)
		}
		if st := v.Zone(0).State; st != zns.ZoneFull {
			t.Errorf("state = %v, want full", st)
		}
		checkReadV(t, v, 0, 37)
		// Reads beyond the data return zeroes.
		buf := make([]byte, 8*v.SectorSize())
		if err := v.Read(40, buf); err != nil {
			t.Fatalf("read of finished zone: %v", err)
		}
		if !bytes.Equal(buf, make([]byte, len(buf))) {
			t.Error("finished-zone tail should read zeroes")
		}
		// Writes rejected.
		if err := v.Write(37, lbaPattern(v, 37, 1), 0); err != ErrZoneFull {
			t.Errorf("write to finished zone error = %v", err)
		}
	})
}

func TestMaxOpenZonesEnforced(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		v, err := Create(c, newOpenLimitedDevices(c, 5, 2), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		zs := v.ZoneSectors()
		mustWriteV(t, v, 0, 4, 0)
		mustWriteV(t, v, zs, 4, 0)
		if err := v.Write(2*zs, lbaPattern(v, 2*zs, 4), 0); err != ErrTooManyOpen {
			t.Errorf("3rd open error = %v", err)
		}
		// Finishing one frees its slot for the third zone.
		if err := v.FinishZone(0); err != nil {
			t.Fatal(err)
		}
		mustWriteV(t, v, 2*zs, 4, 0)
		// Reopening a reset zone needs a free slot.
		if err := v.ResetZone(0); err != nil {
			t.Fatal(err)
		}
		if err := v.Write(0, lbaPattern(v, 0, 4), 0); err != ErrTooManyOpen {
			t.Errorf("reopen error = %v", err)
		}
		if err := v.ResetZone(1); err != nil {
			t.Fatal(err)
		}
		mustWriteV(t, v, 0, 4, 0)
	})
}

func TestFlushAdvancesPersistence(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 20, 0)
		if p := v.Zone(0).PersistedWP; p != 0 {
			t.Errorf("persisted WP before flush = %d", p)
		}
		if err := v.Flush(); err != nil {
			t.Fatal(err)
		}
		if p := v.Zone(0).PersistedWP; p != 20 {
			t.Errorf("persisted WP after flush = %d, want 20", p)
		}
		bm := v.PersistenceBitmap(0)
		if bm[0]&1 == 0 || bm[0]&2 == 0 {
			t.Errorf("bitmap = %b, want first two SUs set", bm[0])
		}
	})
}

func TestFUAWritePersists(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 10, 0)       // volatile
		mustWriteV(t, v, 10, 5, zns.FUA) // must persist everything before it
		if p := v.Zone(0).PersistedWP; p != 15 {
			t.Errorf("persisted WP after FUA = %d, want 15", p)
		}
	})
}

func TestParityOnDevices(t *testing.T) {
	// After a full stripe write, XOR of all devices' first stripe-unit
	// rows must be zero (parity invariant).
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 64, 0)
		ss := v.SectorSize()
		suBytes := 16 * ss
		acc := make([]byte, suBytes)
		for _, d := range devs {
			row := make([]byte, suBytes)
			if err := d.Read(0, row).Wait(); err != nil {
				t.Fatalf("device read: %v", err)
			}
			for i := range acc {
				acc[i] ^= row[i]
			}
		}
		for i, b := range acc {
			if b != 0 {
				t.Fatalf("parity invariant violated at byte %d", i)
			}
		}
	})
}

func TestPartialParityLogged(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 10, 0) // sub-stripe: must produce a pp log
		// The parity device of (zone 0, stripe 0) must hold a pp record
		// in its partial-parity metadata zone.
		pdev := v.lt.parityDev(0, 0)
		recs, err := scanMDZones(devs[pdev], v.lt, v.SectorSize())
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, r := range recs {
			if r.typ.base() == recPartialParity && r.startLBA == 0 && r.endLBA == 10 {
				found = true
			}
		}
		if !found {
			t.Error("no partial-parity record found on the parity device")
		}
	})
}

func TestUnalignedAndOOB(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		if err := v.Write(0, make([]byte, 100), 0); err != ErrUnaligned {
			t.Errorf("unaligned write error = %v", err)
		}
		if err := v.Write(v.NumSectors(), lbaPattern(v, 0, 1), 0); err != ErrOutOfRange {
			t.Errorf("oob write error = %v", err)
		}
		if err := v.Read(-1, make([]byte, v.SectorSize())); err != ErrOutOfRange {
			t.Errorf("negative read error = %v", err)
		}
	})
}

func TestReadSpansZones(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		zs := v.ZoneSectors()
		mustWriteV(t, v, 0, int(zs), 0)
		mustWriteV(t, v, zs, 10, 0)
		checkReadV(t, v, zs-6, 16) // crosses the zone 0 / zone 1 boundary
	})
}
