package raizn

import (
	"bytes"
	"testing"

	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// Shared workloads, volume snapshots and crash captures of the write-path,
// golden, crash-program and metadata-GC tests.

// diffWriteSizes is a deterministic per-zone mix of write shapes:
// sub-unit, unit-aligned, stripe-completing, exact-stripe (full-stripe
// bypass), stripe-spanning, and multi-stripe writes, ending in a partial
// tail. Zone 4 additionally fills to capacity to exercise the ZoneFull
// transition.
func diffWriteSizes(z int, fillZone bool) []int64 {
	sizes := []int64{4, 8, 52, 64, 12, 116, 4, 60, 128, 20} // sums to 468 < 512
	if z == 4 && fillZone {
		sizes = append(sizes, 44) // 512: fills the zone
	}
	return sizes
}

// runDiffWorkload drives one writer goroutine per logical zone, each
// pipelining its zone's write sequence (futures collected, then awaited)
// so multiple writes are in flight per zone while zones race on the
// shared devices. With fua set, every 4th write carries FUA so the
// persistence bitmap has deterministic structure before any flush. (Crash
// tests run without FUA: a FUA write persists its zone's prefix, and the
// device refuses to lose persisted sectors to a power cut, so any FUA
// would defeat the crash cuts.)
func runDiffWorkload(t *testing.T, c *vclock.Clock, v *Volume, fillZone, fua bool) {
	t.Helper()
	wg := c.NewWaitGroup()
	for z := 0; z < v.NumZones(); z++ {
		z := z
		wg.Add(1)
		c.Go(func() {
			defer wg.Done()
			lba := int64(z) * v.ZoneSectors()
			var futs []*vclock.Future
			for i, n := range diffWriteSizes(z, fillZone) {
				var fl zns.Flag
				if fua && i%4 == 1 {
					fl = zns.FUA
				}
				futs = append(futs, v.SubmitWrite(lba, lbaPattern(v, lba, int(n)), fl))
				lba += n
			}
			if err := vclock.WaitAll(futs...); err != nil {
				t.Errorf("zone %d workload: %v", z, err)
			}
		})
	}
	wg.Wait()
}

// runSeqDiffWorkload is runDiffWorkload's shapes as strictly sequential
// awaited writes (no FUA), so the global order of device command
// applications — and therefore of crash-point crossings — is fixed, with
// one mid-workload flush so a flushed-only crash has a non-trivial
// persisted prefix.
func runSeqDiffWorkload(t *testing.T, v *Volume) {
	t.Helper()
	for z := 0; z < v.NumZones(); z++ {
		lba := int64(z) * v.ZoneSectors()
		for _, n := range diffWriteSizes(z, false) {
			if err := v.Write(lba, lbaPattern(v, lba, int(n)), 0); err != nil {
				t.Fatalf("zone %d write at %d: %v", z, lba, err)
			}
			lba += n
		}
		if z == 1 {
			if err := v.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
		}
	}
}

// volSnapshot is a volume's logical state: zone descriptors, the bytes
// below each write pointer, persistence bitmaps and the relocation count.
type volSnapshot struct {
	zones   []ZoneDesc
	data    [][]byte // full readback below each zone's WP
	bitmaps [][]uint64
	relocs  int
}

func snapshotVolume(t *testing.T, v *Volume) volSnapshot {
	t.Helper()
	zs := v.ZoneSectors()
	snap := volSnapshot{relocs: v.RelocationCount()}
	for z := 0; z < v.NumZones(); z++ {
		zd := v.Zone(z)
		snap.zones = append(snap.zones, zd)
		n := zd.WP - int64(z)*zs
		buf := make([]byte, n*int64(v.SectorSize()))
		if n > 0 {
			if err := v.Read(int64(z)*zs, buf); err != nil {
				t.Fatalf("zone %d readback (%d sectors): %v", z, n, err)
			}
		}
		snap.data = append(snap.data, buf)
		snap.bitmaps = append(snap.bitmaps, v.PersistenceBitmap(z))
	}
	return snap
}

// checkSnapshotPattern compares a snapshot with the reference model of the
// workloads above, which write only lbaPattern: whatever a zone holds below
// its write pointer must read back as exactly that.
func checkSnapshotPattern(t *testing.T, what string, v *Volume, snap volSnapshot) {
	t.Helper()
	zs := v.ZoneSectors()
	for z, zd := range snap.zones {
		start := int64(z) * zs
		if !bytes.Equal(snap.data[z], lbaPattern(v, start, int(zd.WP-start))) {
			t.Errorf("%s: zone %d reads back other bytes than were written below WP %d", what, z, zd.WP)
		}
	}
}

// crashCapture is one crash point's device clones: the all-submitted
// variant (every zone cut at its submitted write pointer) and the
// flushed-only variant (persisted prefixes), each bound to a fresh clock
// for recovery.
type crashCapture struct {
	k               int // caller's index of the capture
	allClk, flClk   *vclock.Clock
	allDevs, flDevs []*zns.Device
}

func captureCrash(devs []*zns.Device, k int) *crashCapture {
	cc := &crashCapture{k: k, allClk: vclock.New(), flClk: vclock.New()}
	for _, d := range devs {
		cuts := make(map[int]int64, d.Config().NumZones)
		for z := 0; z < d.Config().NumZones; z++ {
			cuts[z] = 1 << 62 // clamped to the zone's submitted WP
		}
		cc.allDevs = append(cc.allDevs, d.CrashClone(cc.allClk, nil, cuts))
		cc.flDevs = append(cc.flDevs, d.CrashClone(cc.flClk, nil, nil))
	}
	return cc
}

// crashVariant is one of a capture's two clone sets.
type crashVariant struct {
	name string // "all" or "flushed"
	clk  *vclock.Clock
	devs []*zns.Device
}

func (cc *crashCapture) variants() []crashVariant {
	return []crashVariant{{"all", cc.allClk, cc.allDevs}, {"flushed", cc.flClk, cc.flDevs}}
}
