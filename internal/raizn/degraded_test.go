package raizn

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"raizn/internal/vclock"
	"raizn/internal/zns"
)

func TestDegradedReadFullStripes(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 256, 0) // full zone
		if err := v.FailDevice(2); err != nil {
			t.Fatal(err)
		}
		if v.Degraded() != 2 {
			t.Errorf("Degraded() = %d", v.Degraded())
		}
		checkReadV(t, v, 0, 256)
		// Odd-granularity reads across the missing unit.
		checkReadV(t, v, 3, 50)
		checkReadV(t, v, 100, 17)
	})
}

// TestDegradedReadPartialStripe reads back an open stripe, written in
// 13-sector pieces behind one complete stripe, with each of its devices
// failed in turn, on both engines and at tail fills around every unit
// edge. A lost unit of the open stripe is the buffer's running parity XOR
// the survivors read from their devices, by a degraded read and by the
// rebuild onto a replacement; afterwards the next device is failed, so the
// rebuilt unit is read back as a survivor too.
func TestDegradedReadPartialStripe(t *testing.T) {
	const su, stripe = 16, 64 // testDevConfig's array
	for _, env := range fuaEnvs() {
		for _, tail := range []int64{1, su - 1, su, su + 1, 2*su + 7, stripe - 1} {
			for victim := 0; victim < 5; victim++ {
				env, tail, victim := env, tail, victim
				t.Run(fmt.Sprintf("%s/tail%d/dev%d", env.name, tail, victim), func(t *testing.T) {
					c := vclock.New()
					c.Run(func() { degradedOpenStripe(t, c, env, tail, victim) })
				})
			}
		}
	}
}

// degradedOpenStripe runs one TestDegradedReadPartialStripe case: zone 0
// holds stripe 0 and tail sectors of stripe 1, and victim is the index,
// among stripe 1's devices in unit order, parity last, of the one failed.
func degradedOpenStripe(t *testing.T, c *vclock.Clock, env fuaEnv, tail int64, victim int) {
	devs, v, err := env.create(c)
	if err != nil {
		t.Fatal(err)
	}
	if v.lt.su != 16 || v.lt.n != 5 {
		t.Fatalf("array is %d devices with %d-sector units, the table assumes 5 and 16", v.lt.n, v.lt.su)
	}
	n := v.lt.stripeSectors() + tail
	for lba := int64(0); lba < n; lba += 13 {
		mustWriteV(t, v, lba, int(min(13, n-lba)), 0)
	}
	readAll := func(when string) {
		t.Helper()
		checkReadV(t, v, 0, int(n))
		for lba := int64(0); lba < n; lba++ {
			checkReadV(t, v, lba, 1)
		}
		for lba := int64(3); lba < n; lba += 5 {
			checkReadV(t, v, lba, int(min(7, n-lba)))
		}
		if t.Failed() {
			t.Fatalf("%s: read back wrong", when)
		}
	}
	stripeDev := func(k int) int {
		if k == v.lt.d {
			return v.lt.parityDev(0, 1)
		}
		return v.lt.dataDev(0, 1, k)
	}
	if err := v.FailDevice(stripeDev(victim)); err != nil {
		t.Fatal(err)
	}
	readAll("degraded")
	if _, err := v.ReplaceDevice(zns.NewDevice(c, devs[0].Config())); err != nil {
		t.Fatalf("ReplaceDevice: %v", err)
	}
	readAll("rebuilt")
	if err := v.FailDevice(stripeDev((victim + 1) % v.lt.n)); err != nil {
		t.Fatal(err)
	}
	readAll("rebuilt, next device failed")
}

func TestDegradedWriteContinues(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 30, 0)
		v.FailDevice(0)
		mustWriteV(t, v, 30, 100, 0) // degraded writes omit device 0
		checkReadV(t, v, 0, 130)
	})
}

func TestDegradedWriteThenRemountDegraded(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		v.FailDevice(1)
		mustWriteV(t, v, 0, 128, 0)
		v.Flush()
		// Remount without device 1 entirely.
		avail := []*zns.Device{devs[0], devs[2], devs[3], devs[4]}
		v2, err := Mount(c, avail, DefaultConfig())
		if err != nil {
			t.Fatalf("degraded Mount: %v", err)
		}
		if v2.Degraded() != 1 {
			t.Errorf("Degraded() = %d, want 1", v2.Degraded())
		}
		checkReadV(t, v2, 0, 128)
	})
}

func TestDegradedMountPartialStripeUsesPartialParity(t *testing.T) {
	// §5.1's recovery story: crash with a partial stripe, then the
	// device holding one of its data units fails. The stripe buffer is
	// reconstructed from the partial-parity logs. Lost in turn: a full
	// unit, and after a power cycle the half-written unit itself.
	for _, tc := range []struct {
		unit      int
		powerLoss bool
	}{{1, false}, {2, true}} {
		runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
			mustWriteV(t, v, 0, 40, 0) // units 0,1 full; unit 2 half
			v.Flush()
			if tc.powerLoss {
				for _, d := range devs {
					d.PowerLoss(nil)
				}
			}
			victim := v.lt.dataDev(0, 0, tc.unit)
			avail := make([]*zns.Device, 0, 4)
			for i, d := range devs {
				if i != victim {
					avail = append(avail, d)
				}
			}
			v2, err := Mount(c, avail, DefaultConfig())
			if err != nil {
				t.Fatalf("unit %d lost: Mount: %v", tc.unit, err)
			}
			if wp := v2.Zone(0).WP; wp != 40 {
				t.Errorf("unit %d lost: WP = %d, want 40 (from pp logs)", tc.unit, wp)
			}
			checkReadV(t, v2, 0, 40)
			// Appends must continue correctly (buffer reconstructed).
			mustWriteV(t, v2, 40, 24, 0) // completes the stripe
			checkReadV(t, v2, 0, 64)
		})
	}
}

// TestDegradedMountZoneOnlyTheMissingDeviceWrote is ROADMAP item 2(c):
// 8 sectors, then 4 with FUA, all in unit 0; a power cut; a mount without
// unit 0's device. No surviving data device wrote the zone, so only the
// partial-parity images say it holds data. The logged engine's log keeps
// every image and recovers all 12 acked sectors, which appends then
// extend. A zraid slot keeps only the newest image, a delta that rebuilds
// no sector from offset 0, so the zone mounts empty: an error on read,
// never wrong bytes with a nil error.
func TestDegradedMountZoneOnlyTheMissingDeviceWrote(t *testing.T) {
	for _, env := range fuaEnvs() {
		t.Run(env.name, func(t *testing.T) {
			c := vclock.New()
			c.Run(func() {
				devs, v, err := env.create(c)
				if err != nil {
					t.Fatalf("Create: %v", err)
				}
				mustWriteV(t, v, 0, 8, 0)
				mustWriteV(t, v, 8, 4, zns.FUA)
				for _, d := range devs {
					d.PowerLoss(nil)
				}
				victim := v.lt.dataDev(0, 0, 0)
				avail := append(devs[:victim:victim], devs[victim+1:]...)
				v2, err := Mount(c, avail, env.cfg)
				if err != nil {
					t.Fatalf("Mount: %v", err)
				}
				o := readLoss(v2, 12)
				if o.err == "none" && !o.match {
					t.Fatalf("read back wrong bytes with a nil error: %v", o)
				}
				if env.cfg.ParityEngine == EngineZRAID {
					return
				}
				if !o.match || o.wp != 12 {
					t.Fatalf("got %v, want wp=12 err=none match=true", o)
				}
				mustWriteV(t, v2, 12, 52, 0) // completes the stripe
				checkReadV(t, v2, 0, 64)
			})
		})
	}
}

func TestSecondFailureGoesReadOnly(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 64, 0)
		v.FailDevice(0)
		if err := v.FailDevice(1); err != ErrDegraded {
			t.Errorf("second failure error = %v", err)
		}
		if !v.ReadOnly() {
			t.Error("volume should be read-only after double failure")
		}
		if err := v.Write(64, lbaPattern(v, 64, 1), 0); err != ErrReadOnly {
			t.Errorf("write on read-only volume error = %v", err)
		}
	})
}

func TestRebuildRestoresRedundancy(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		zs := v.ZoneSectors()
		mustWriteV(t, v, 0, int(zs), 0) // full zone
		mustWriteV(t, v, zs, 100, 0)    // partial zone
		mustWriteV(t, v, 2*zs, 37, 0)   // partial stripe tail
		v.FailDevice(3)
		checkReadV(t, v, 0, int(zs))

		replacement := zns.NewDevice(c, testDevConfig())
		stats, err := v.ReplaceDevice(replacement)
		if err != nil {
			t.Fatalf("ReplaceDevice: %v", err)
		}
		if v.Degraded() != -1 {
			t.Errorf("still degraded after rebuild: %d", v.Degraded())
		}
		if stats.Zones == 0 || stats.BytesWritten == 0 {
			t.Errorf("suspicious rebuild stats: %+v", stats)
		}
		checkReadV(t, v, 0, int(zs))
		checkReadV(t, v, zs, 100)
		checkReadV(t, v, 2*zs, 37)

		// Redundancy is back: fail a different device and read again.
		v.FailDevice(0)
		checkReadV(t, v, 0, int(zs))
		checkReadV(t, v, zs, 100)
		checkReadV(t, v, 2*zs, 37)
	})
}

func TestRebuildOnlyCopiesValidData(t *testing.T) {
	// RAIZN's TTR advantage (§6.2): rebuild writes scale with valid
	// data, not device capacity.
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 64, 0) // one stripe in one zone; rest empty
		v.FailDevice(2)
		replacement := zns.NewDevice(c, testDevConfig())
		stats, err := v.ReplaceDevice(replacement)
		if err != nil {
			t.Fatal(err)
		}
		// Device 2 held exactly one stripe unit (16 sectors).
		want := int64(16 * v.SectorSize())
		if stats.BytesWritten != want {
			t.Errorf("rebuild wrote %d bytes, want %d", stats.BytesWritten, want)
		}
	})
}

func TestRebuildTimeScalesWithData(t *testing.T) {
	measure := func(fillZones int) (elapsed int64) {
		c := vclock.New()
		c.Run(func() {
			devs := newTestDevices(c, 5)
			v, err := Create(c, devs, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			zs := v.ZoneSectors()
			for z := 0; z < fillZones; z++ {
				mustWriteV(t, v, int64(z)*zs, int(zs), 0)
			}
			v.FailDevice(1)
			stats, err := v.ReplaceDevice(zns.NewDevice(c, testDevConfig()))
			if err != nil {
				t.Fatal(err)
			}
			elapsed = int64(stats.Elapsed)
		})
		return elapsed
	}
	t1 := measure(1)
	t4 := measure(4)
	if t4 < 2*t1 {
		t.Errorf("rebuild time does not scale with data: 1 zone %d, 4 zones %d", t1, t4)
	}
}

func TestWritesDuringRebuildStayConsistent(t *testing.T) {
	// Writes race the rebuild: small appends to a zone the rebuild has to
	// copy, and full stripes into a zone it finds empty.
	for _, tc := range []struct {
		pre, chunk, n  int64 // zone 4: sectors written before, then n writes of chunk
		failed, second int   // device rebuilt, device failed afterwards
	}{{20, 4, 10, 4, 2}, {0, 16, 8, 1, 0}} {
		runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
			zs := v.ZoneSectors()
			for z := int64(0); z < 4; z++ {
				mustWriteV(t, v, z*zs, int(zs), 0)
			}
			if tc.pre > 0 {
				mustWriteV(t, v, 4*zs, int(tc.pre), 0)
			}
			v.FailDevice(tc.failed)

			replacement := zns.NewDevice(c, testDevConfig())
			done := c.NewFuture()
			c.Go(func() {
				_, err := v.ReplaceDevice(replacement)
				done.Complete(err)
			})
			// Concurrent writes while the rebuild runs.
			for i := int64(0); i < tc.n; i++ {
				mustWriteV(t, v, 4*zs+tc.pre+i*tc.chunk, int(tc.chunk), 0)
			}
			if err := done.Wait(); err != nil {
				t.Fatalf("rebuild: %v", err)
			}
			if d := v.Degraded(); d != -1 {
				t.Errorf("Degraded() = %d after the rebuild, want -1", d)
			}
			if err := v.CheckRedundancy(); err != nil {
				t.Fatalf("after the rebuild: %v", err)
			}
			end := int(tc.pre + tc.n*tc.chunk)
			for z := int64(0); z < 4; z++ {
				checkReadV(t, v, z*zs, int(zs))
			}
			checkReadV(t, v, 4*zs, end)
			// Verify redundancy of the data written during rebuild.
			v.FailDevice(tc.second)
			checkReadV(t, v, 4*zs, end)
		})
	}
}

// TestWritesAfterRebuildStartReachReplacement: a zone that is empty when
// the rebuild takes its order, and first written some time after the
// rebuild started, must end up on the replacement too; and a queued zone
// reset before its turn must be rebuilt from its new generation. Each
// case fails the replacement's neighbour afterwards and reads everything
// back through reconstruction.
func TestWritesAfterRebuildStartReachReplacement(t *testing.T) {
	for _, delay := range []time.Duration{0, time.Millisecond, 5 * time.Millisecond} {
		t.Run(delay.String(), func(t *testing.T) {
			runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
				zs := v.ZoneSectors()
				for z := int64(0); z < 4; z++ {
					mustWriteV(t, v, z*zs, int(zs), 0)
				}
				v.FailDevice(1)

				replacement := zns.NewDevice(c, testDevConfig())
				done := c.NewFuture()
				c.Go(func() {
					_, err := v.ReplaceDevice(replacement)
					done.Complete(err)
				})
				c.Sleep(delay)
				// Zone 4 was empty at the start; zone 3, full, is last
				// in the order, and its new generation differs in every
				// byte from its old one.
				mustWriteV(t, v, 4*zs, 128, 0)
				if err := v.ResetZone(3); err != nil {
					t.Fatalf("ResetZone(3): %v", err)
				}
				newGen := lbaPattern(v, 3*zs, 40)
				for i := range newGen {
					newGen[i] ^= 0xff
				}
				if err := v.Write(3*zs, newGen, 0); err != nil {
					t.Fatalf("write zone 3 after its reset: %v", err)
				}
				if err := done.Wait(); err != nil {
					t.Fatalf("rebuild: %v", err)
				}
				if d := v.Degraded(); d != -1 {
					t.Fatalf("Degraded() = %d after the rebuild, want -1", d)
				}
				if err := v.CheckRedundancy(); err != nil {
					t.Fatalf("after the rebuild: %v", err)
				}
				if err := v.FailDevice(2); err != nil {
					t.Fatal(err)
				}
				checkReadV(t, v, 4*zs, 128)
				for z := int64(0); z < 3; z++ {
					checkReadV(t, v, z*zs, int(zs))
				}
				got := make([]byte, len(newGen))
				if err := v.Read(3*zs, got); err != nil {
					t.Fatalf("read zone 3 degraded: %v", err)
				}
				if !bytes.Equal(got, newGen) {
					t.Fatal("zone 3 reads back other bytes than its new generation")
				}
			})
		})
	}
}

func TestRebuildOfRemappedZone(t *testing.T) {
	// A zone with relocated fragments on a surviving device must remain
	// readable after an unrelated device is rebuilt; fragments on the
	// dead device are re-materialized at their arithmetic location.
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 64, 0)
		v.Flush()
		mustWriteV(t, v, 64, 48, 0)
		// Crash losing units 0,1 of stripe 1 but keeping unit 2 → zone
		// truncated to 64 and remapped (same scenario as the crash
		// test).
		d0 := v.lt.dataDev(0, 1, 0)
		d1 := v.lt.dataDev(0, 1, 1)
		for i, d := range devs {
			m := map[int]int64{}
			for z := 0; z < d.Config().NumZones; z++ {
				zd := d.Zone(z)
				m[z] = zd.WP - d.ZoneStart(z)
			}
			if i == d0 || i == d1 {
				m[0] = 16
			}
			if i == v.lt.parityDev(0, 1) {
				for mz := 0; mz < v.lt.mdZones; mz++ {
					z := v.lt.mdZoneIndex(mz)
					zd := d.Zone(z)
					m[z] = zd.PersistedWP - d.ZoneStart(z)
				}
			}
			d.PowerLossAt(m)
		}
		v2 := remount(t, c, devs)
		mustWriteV(t, v2, 64, 64, 0) // relocates the collision
		if v2.RelocationCount() == 0 {
			t.Fatal("expected relocations")
		}
		// Now fail and rebuild a device.
		v2.FailDevice(d0)
		replacement := zns.NewDevice(c, testDevConfig())
		if _, err := v2.ReplaceDevice(replacement); err != nil {
			t.Fatalf("rebuild: %v", err)
		}
		checkReadV(t, v2, 0, 128)
		v2.Flush()
		after := append([]*zns.Device(nil), devs...)
		after[d0] = replacement
		v3 := remount(t, c, after)
		checkReadV(t, v3, 0, 128)
	})
}

func TestDegradedDataMatchesParityReconstruction(t *testing.T) {
	// Cross-check: normal read vs degraded read of identical ranges.
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 200, 0)
		normal := make([]byte, 200*v.SectorSize())
		if err := v.Read(0, normal); err != nil {
			t.Fatal(err)
		}
		v.FailDevice(1)
		degraded := make([]byte, 200*v.SectorSize())
		if err := v.Read(0, degraded); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(normal, degraded) {
			t.Error("degraded read differs from normal read")
		}
	})
}

// TestDegradedEmptyReconstructionReusesJoin reads, back to back through
// one re-armed future and so through one pooled read join, a piece whose
// reconstruction issues no device read — the open stripe's lost unit is
// the only one written, so the buffer's running parity is the whole
// answer — and a piece of a complete stripe rebuilt from four device
// reads. The empty reconstruction must not offer its job to the copier
// (zns.XORRead.Seal): a job the copier still held when the join was taken
// for the next piece would be XORed into that piece's buffer twice.
func TestDegradedEmptyReconstructionReusesJoin(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		const open, tail = 5, 7 // stripe 5 holds 7 sectors of its unit 0
		stripe := v.lt.stripeSectors()
		mustWriteV(t, v, 0, int(open*stripe+tail), 0)
		failed := v.lt.dataDev(0, open, 0)
		if err := v.FailDevice(failed); err != nil {
			t.Fatal(err)
		}
		full := int64(-1) // a complete stripe's data unit on the failed device
		for s := int64(0); s < open && full < 0; s++ {
			for u := 0; u < v.lt.d; u++ {
				if v.lt.dataDev(0, s, u) == failed {
					full = s*stripe + int64(u)*v.lt.su
					break
				}
			}
		}
		pieces := []struct{ lba, n int64 }{{open * stripe, tail}, {full, v.lt.su}, {open*stripe + 2, 3}, {full + 5, 9}}
		fut := c.NewFuture()
		buf := make([]byte, v.lt.su*int64(v.SectorSize()))
		for i := 0; i < 400; i++ {
			p := pieces[i%len(pieces)]
			out := buf[:p.n*int64(v.SectorSize())]
			if err := readTo(v, fut, p.lba, out); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, lbaPattern(v, p.lba, int(p.n))) {
				t.Fatalf("read %d of [%d, +%d): wrong bytes", i, p.lba, p.n)
			}
		}
	})
}

// TestReconstructionCheckedAgainstRow: one sector of a survivor rots, then
// a device fails. A degraded read of the lost unit whole, and the rebuild
// onto a replacement, check the reconstruction against the stripe's
// checksum row and fail with ErrChecksumMismatch instead of returning or
// writing wrong bytes; each mismatch is counted. A read of part of the
// unit is not checked (DESIGN.md states the limit).
func TestReconstructionCheckedAgainstRow(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		su := int(v.lt.su)
		mustWriteV(t, v, 0, int(v.lt.stripeSectors()), 0)
		if err := v.Flush(); err != nil {
			t.Fatal(err)
		}
		dev, pba := unitSectorPBA(v, 0, 0, 2, 5)
		if err := devs[dev].CorruptSector(pba); err != nil {
			t.Fatal(err)
		}
		victim := v.lt.dataDev(0, 0, 0)
		if err := v.FailDevice(victim); err != nil {
			t.Fatal(err)
		}
		if err := v.Read(0, make([]byte, su*v.SectorSize())); !errors.Is(err, ErrChecksumMismatch) {
			t.Errorf("whole-unit degraded read: %v, want ErrChecksumMismatch", err)
		}
		if err := v.Read(0, make([]byte, (su/2)*v.SectorSize())); err != nil {
			t.Errorf("half-unit degraded read: %v, want it unchecked", err)
		}
		nd := zns.NewDevice(c, testDevConfig())
		if _, err := v.ReplaceDevice(nd); !errors.Is(err, ErrChecksumMismatch) {
			t.Errorf("ReplaceDevice: %v, want ErrChecksumMismatch", err)
		}
		if z := nd.Zone(0); z.WP != nd.ZoneStart(0) {
			t.Errorf("replacement zone 0 holds %d sectors, want none written", z.WP-nd.ZoneStart(0))
		}
		if got := v.Degraded(); got != victim {
			t.Errorf("Degraded() = %d after the aborted rebuild, want %d", got, victim)
		}
		if n := v.Stats().ReconstructMismatches; n != 2 {
			t.Errorf("ReconstructMismatches = %d, want 2 (the read and the rebuild)", n)
		}
	})
}

// TestRejectedReadWaitsForIssuedReads: a read rejected while it is planned
// has already issued device reads into the caller's buffer. Here a read
// past full zone 0 into empty zone 1 fails with ErrReadBeyondWP after zone
// 0's piece is issued. Its future completes only after that device read
// has, with zone 0's bytes in the buffer; its join goes back to the pool;
// and it is not counted as a logical read.
func TestRejectedReadWaitsForIssuedReads(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		poolLen := func() int {
			v.readPool.mu.Lock()
			defer v.readPool.mu.Unlock()
			return len(v.readPool.items)
		}
		zoneReads := func() (n int64) {
			for _, d := range devs {
				n += d.ZoneReads(0)
			}
			return n
		}
		zs := v.ZoneSectors()
		mustWriteV(t, v, 0, int(zs), 0)
		if err := v.Read(0, make([]byte, 8*v.SectorSize())); err != nil {
			t.Fatal(err)
		}
		pool, reads, readBytes := poolLen(), zoneReads(), v.Stats().LogicalReadBytes

		buf := make([]byte, 8*v.SectorSize())
		fut := v.SubmitRead(zs-4, buf)
		if zoneReads() == reads {
			t.Fatal("no zone-0 device read issued: the case tests nothing")
		}
		if fut.Done() {
			t.Error("rejected read completed at submit, before the device read it issued")
		}
		if err := fut.Wait(); err != ErrReadBeyondWP {
			t.Fatalf("read error = %v, want ErrReadBeyondWP", err)
		}
		if !bytes.Equal(buf[:4*v.SectorSize()], lbaPattern(v, zs-4, 4)) {
			t.Error("zone 0's device read had not filled the buffer at completion")
		}
		if got := poolLen(); got != pool {
			t.Errorf("read joins pooled after the read = %d, want %d", got, pool)
		}
		if got := v.Stats().LogicalReadBytes; got != readBytes {
			t.Errorf("logical read bytes moved by %d on a rejected read", got-readBytes)
		}
	})
}
