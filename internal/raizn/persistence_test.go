package raizn

import (
	"math/rand"
	"testing"
	"time"

	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// TestFUANeverLost is the §5.3 guarantee: once a FUA write completes,
// the write AND every LBA before it in the zone survive any power loss.
// Two zones are written interleaved, so a FUA write in one zone finds the
// devices dirtied by the other.
func TestFUANeverLost(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
			rng := rand.New(rand.NewSource(seed))
			zs := v.ZoneSectors()
			var wp, fuaHigh [2]int64 // per zone: next offset, end of the last completed FUA write
			for wp[0] < 150 || wp[1] < 150 {
				z := rng.Intn(2)
				if wp[z] >= 150 {
					z = 1 - z
				}
				n := min(int64(1+rng.Intn(30)), 150-wp[z])
				flags := zns.Flag(0)
				if rng.Intn(3) == 0 {
					flags = zns.FUA
				}
				mustWriteV(t, v, int64(z)*zs+wp[z], int(n), flags)
				wp[z] += n
				if flags == zns.FUA {
					fuaHigh[z] = wp[z]
				}
			}
			for _, d := range devs {
				d.PowerLoss(rng)
			}
			v2 := remount(t, c, devs)
			for z := range fuaHigh {
				base := int64(z) * zs
				if got := v2.Zone(z).WP - base; got < fuaHigh[z] {
					t.Fatalf("seed %d: FUA data lost: zone %d WP=%d < FUA end %d", seed, z, got, fuaHigh[z])
				}
				if fuaHigh[z] > 0 {
					checkReadV(t, v2, base, int(fuaHigh[z]))
				}
			}
		})
	}
}

// TestPreflushOrdersPriorWrites verifies REQ_PREFLUSH semantics: a
// preflush write's completion implies all previously COMPLETED writes are
// durable.
func TestPreflushOrdersPriorWrites(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		zs := v.ZoneSectors()
		mustWriteV(t, v, 0, 50, 0)  // zone 0, volatile
		mustWriteV(t, v, zs, 30, 0) // zone 1, volatile
		mustWriteV(t, v, 50, 10, zns.Preflush|zns.FUA)
		for _, d := range devs {
			d.PowerLoss(nil)
		}
		v2 := remount(t, c, devs)
		if wp := v2.Zone(0).WP; wp < 60 {
			t.Errorf("zone 0 WP=%d, want >= 60", wp)
		}
		if wp := v2.Zone(1).WP - zs; wp < 30 {
			t.Errorf("zone 1 WP=%d, want >= 30 (preflush must persist it)", wp)
		}
		checkReadV(t, v2, 0, 60)
		checkReadV(t, v2, zs, 30)
	})
}

// TestPersistenceBitmapTracksFlushes exercises the Figure 6 bookkeeping.
func TestPersistenceBitmapTracksFlushes(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 33, 0) // SUs 0,1 full + SU 2 partial
		bm := v.PersistenceBitmap(0)
		if bm[0] != 0 {
			t.Errorf("bitmap before flush = %b, want 0", bm[0])
		}
		v.Flush()
		bm = v.PersistenceBitmap(0)
		// 33 sectors = 2 full SUs + 1 sector into SU 2; bits 0..2 set
		// ("a write starting in the middle of a stripe unit implies the
		// beginning was persisted", §5.3).
		if bm[0]&0b111 != 0b111 {
			t.Errorf("bitmap after flush = %b, want low 3 bits", bm[0])
		}
		if bm[0]&^uint64(0b111) != 0 {
			t.Errorf("bitmap has spurious bits: %b", bm[0])
		}
	})
}

// TestFUAFlushesOnlyInvolvedDevices pins the §5.3 rule to exact per-device
// flush counts: a durable write flushes the devices on which its zone has
// sub-IOs that neither a flush nor one of the write's own FUA sub-IOs to
// the same physical zone persists — and no other device, and none twice.
func TestFUAFlushesOnlyInvolvedDevices(t *testing.T) {
	const su = 16 // stripe unit of DefaultConfig; a stripe is 4 units
	type env struct {
		c    *vclock.Clock
		v    *Volume
		devs []*zns.Device
	}
	// dataDevs adds one expected flush on the devices holding data units
	// [0, units) of stripe 0 of zone z.
	dataDevs := func(e env, want []int64, z, units int) {
		for u := 0; u < units; u++ {
			want[e.v.lt.dataDev(z, 0, u)]++
		}
	}
	cases := []struct {
		name string
		prep func(e env)               // before the flush counters are read
		act  func(e env)               // the durable writes under test
		want func(e env, want []int64) // expected flushes per device during act
		// joined is the number of flush needs act must serve by joining.
		joined func(e env) int64
	}{
		{
			name: "all-FUA stream",
			act: func(e env) {
				lba := int64(0)
				for _, n := range []int{4, 1, 11, 16, 32, 7, 57, 70, 3} { // ends on and crosses stripe boundaries
					mustWriteV(t, e.v, lba, n, zns.FUA)
					lba += int64(n)
				}
			},
		},
		{
			name: "FUA unit completes a stripe of non-FUA units",
			prep: func(e env) {
				for u := int64(0); u < 3; u++ {
					mustWriteV(t, e.v, u*su, su, 0)
				}
			},
			act: func(e env) { mustWriteV(t, e.v, 3*su, su, zns.FUA) },
			want: func(e env, want []int64) {
				// Units 0-2 are dirty; unit 3's device gets only the FUA
				// write. The parity device's FUA parity unit lands in
				// the data zone, which does not persist the three
				// partial-parity records in its metadata zone.
				dataDevs(e, want, 0, 3)
				want[e.v.lt.parityDev(0, 0)]++
			},
		},
		{
			name: "own FUA sub-IOs cover the same physical zone",
			prep: func(e env) {
				mustWriteV(t, e.v, 0, su, 0)    // unit 0 + pp record
				mustWriteV(t, e.v, su, su/4, 0) // start of unit 1 + pp record
			},
			act: func(e env) { mustWriteV(t, e.v, su+su/4, su/4, zns.FUA) },
			want: func(e env, want []int64) {
				// The FUA data sub-IO persists unit 1's device prefix and
				// the FUA pp record the parity device's log prefix: only
				// unit 0's device is left.
				dataDevs(e, want, 0, 1)
			},
		},
		{
			name: "after Flush",
			prep: func(e env) {
				mustWriteV(t, e.v, 0, 3*su, 0)
				if err := e.v.Flush(); err != nil {
					t.Fatal(err)
				}
			},
			act: func(e env) { mustWriteV(t, e.v, 3*su, 4, zns.FUA) },
		},
		{
			name: "Preflush reaches the other zones' devices",
			prep: func(e env) {
				if err := e.v.Flush(); err != nil { // the devices start out presumed dirty
					t.Fatal(err)
				}
				mustWriteV(t, e.v, e.v.ZoneSectors(), 2*su, 0) // zone 1, units 0-1
			},
			act: func(e env) { mustWriteV(t, e.v, 0, 4, zns.FUA|zns.Preflush) },
			want: func(e env, want []int64) {
				dataDevs(e, want, 1, 2)
				want[e.v.lt.parityDev(1, 0)]++
			},
		},
		{
			name: "two concurrent FUA writers share one flush per device",
			prep: func(e env) {
				for z := int64(0); z < 2; z++ {
					mustWriteV(t, e.v, z*e.v.ZoneSectors(), 3*su, 0)
				}
			},
			act: func(e env) {
				a := e.v.SubmitWrite(3*su, lbaPattern(e.v, 3*su, 4), zns.FUA)
				lba := e.v.ZoneSectors() + 3*su
				b := e.v.SubmitWrite(lba, lbaPattern(e.v, lba, 4), zns.FUA)
				if err := vclock.WaitAll(a, b); err != nil {
					t.Fatal(err)
				}
			},
			want: func(e env, want []int64) {
				// Each zone needs the devices of its units 0-2 (its FUA pp
				// record covers the parity device's log); a device both
				// need is flushed once.
				dataDevs(e, want, 0, 3)
				dataDevs(e, want, 1, 3)
				for i := range want {
					want[i] = min(want[i], 1)
				}
			},
			joined: func(e env) int64 {
				both := make([]int64, len(e.devs))
				dataDevs(e, both, 0, 3)
				dataDevs(e, both, 1, 3)
				var n int64
				for _, k := range both {
					if k == 2 {
						n++
					}
				}
				return n
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
				e := env{c, v, devs}
				if tc.prep != nil {
					tc.prep(e)
				}
				before := make([]int64, len(devs))
				for i, d := range devs {
					_, _, before[i], _ = d.Counters()
				}
				st0 := v.Stats()
				tc.act(e)
				want := make([]int64, len(devs))
				if tc.want != nil {
					tc.want(e, want)
				}
				var issued int64
				for i, d := range devs {
					_, _, f, _ := d.Counters()
					if got := f - before[i]; got != want[i] {
						t.Errorf("device %d: %d flushes, want %d", i, got, want[i])
					}
					issued += want[i]
				}
				st := v.Stats()
				if got := st.FUAFlushes - st0.FUAFlushes; got != issued {
					t.Errorf("FUAFlushes grew by %d, want %d", got, issued)
				}
				var joined int64
				if tc.joined != nil {
					joined = tc.joined(e)
				}
				if got := st.FUAFlushesJoined - st0.FUAFlushesJoined; got != joined {
					t.Errorf("FUAFlushesJoined grew by %d, want %d", got, joined)
				}
			})
		})
	}
}

// TestFUAFlushOverlapsWrite: the flushes a FUA write needs are issued with
// its sub-IOs, so the write takes about one flush, not write + flush.
func TestFUAFlushOverlapsWrite(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		for lba := int64(0); lba < 48; lba += 16 {
			mustWriteV(t, v, lba, 16, 0) // three non-FUA units
		}
		flush := devs[0].Config().FlushLatency
		t0 := c.Now()
		mustWriteV(t, v, 48, 4, zns.FUA)
		if took := c.Now() - t0; took < flush || took >= flush+50*time.Microsecond {
			t.Errorf("non-FUA x3 + FUA: the FUA write took %v, want [%v, %v)", took, flush, flush+50*time.Microsecond)
		}
	})
}

// TestFlushSkipsCleanDevices: SubmitFlush flushes a device only when it
// holds a write no flush or FUA has persisted.
func TestFlushSkipsCleanDevices(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		flushes := func() []int64 {
			out := make([]int64, len(devs))
			for i, d := range devs {
				_, _, out[i], _ = d.Counters()
			}
			return out
		}
		step := func(what string, want func(dev int) int64) {
			t.Helper()
			before := flushes()
			if err := v.Flush(); err != nil {
				t.Fatal(err)
			}
			for i, f := range flushes() {
				if got := f - before[i]; got != want(i) {
					t.Errorf("%s: device %d flushed %d times, want %d", what, i, got, want(i))
				}
			}
		}
		step("first flush after create", func(int) int64 { return 1 }) // presumed dirty
		step("nothing written", func(int) int64 { return 0 })
		mustWriteV(t, v, 0, 8, zns.FUA)
		step("FUA write only", func(int) int64 { return 0 })
		if p := v.Zone(0).PersistedWP; p != 8 {
			t.Errorf("persisted WP = %d, want 8", p)
		}
		mustWriteV(t, v, 8, 4, 0)
		step("one non-FUA unit", func(dev int) int64 {
			if dev == v.lt.dataDev(0, 0, 0) || dev == v.lt.parityDev(0, 0) {
				return 1
			}
			return 0
		})
		if p := v.Zone(0).PersistedWP; p != 12 {
			t.Errorf("persisted WP = %d, want 12", p)
		}
	})
}

// TestCrashDuringMetadataGC forces a metadata GC and crashes right after,
// verifying checkpointed records carry recovery.
func TestCrashDuringMetadataGC(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		// Partial-stripe churn generates pp logs; tiny test zones (64
		// sectors) mean the pp zone fills after ~32 single-sector
		// writes and GC rolls it over.
		zs := v.ZoneSectors()
		for z := int64(0); z < 3; z++ {
			for i := int64(0); i < 50; i++ {
				mustWriteV(t, v, z*zs+i, 1, 0)
			}
		}
		v.Flush()
		// One more partial write whose pp log lands in the post-GC
		// zone, then a pessimistic crash.
		mustWriteV(t, v, 3*zs, 1, zns.FUA)
		for _, d := range devs {
			d.PowerLoss(nil)
		}
		v2 := remount(t, c, devs)
		for z := int64(0); z < 3; z++ {
			if wp := v2.Zone(int(z)).WP - z*zs; wp != 50 {
				t.Errorf("zone %d WP=%d, want 50", z, wp)
			}
			checkReadV(t, v2, z*zs, 50)
		}
		if wp := v2.Zone(3).WP - 3*zs; wp != 1 {
			t.Errorf("FUA write lost: zone 3 WP=%d", wp)
		}
	})
}

// TestMaintainCompactsMetadata verifies the §4.3 maintenance operation.
func TestMaintainCompactsMetadata(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		for i := int64(0); i < 40; i++ {
			mustWriteV(t, v, i, 1, 0)
		}
		if err := v.Maintain(); err != nil {
			t.Fatalf("Maintain: %v", err)
		}
		// The volume still works and survives remount.
		mustWriteV(t, v, 40, 24, 0) // completes stripe 0 and more
		v.Flush()
		v2 := remount(t, c, devs)
		checkReadV(t, v2, 0, 64)
	})
}

// TestGenerationCounterPersistedAcrossGC: reset bumps the counter; a
// later metadata GC checkpoint must preserve it.
func TestGenerationCounterPersistedAcrossGC(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 16, 0)
		v.ResetZone(0)
		v.ResetZone(0) // no-op: zone empty
		mustWriteV(t, v, 0, 16, 0)
		v.ResetZone(0)
		gen := v.Generation(0)
		if gen != 2 {
			t.Fatalf("generation = %d, want 2", gen)
		}
		if err := v.Maintain(); err != nil {
			t.Fatal(err)
		}
		v.Flush()
		v2 := remount(t, c, devs)
		// Mount bumps empty zones once more.
		if g := v2.Generation(0); g != gen+1 {
			t.Errorf("generation after GC+remount = %d, want %d", g, gen+1)
		}
	})
}

// TestMaintainZeroedCountersSurviveRemount drives Maintain's counter
// overflow path: with every generation counter at the ceiling, a FUA write
// leaves zone 0 a partial stripe whose parity only a partial-parity record
// holds, and Maintain zeroes the counters. A remount — whole, and without
// the device holding the stripe's unit 0 — must take the zeroed counters
// (the newest record), not the larger ones written before, and find the
// partial parity stamped with the new generation.
func TestMaintainZeroedCountersSurviveRemount(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		v.mu.Lock()
		for z := range v.gen {
			v.gen[z] = genCounterCeiling
		}
		v.mu.Unlock()
		if err := v.persistGenCounters(); err != nil {
			t.Fatal(err)
		}
		mustWriteV(t, v, 0, 40, zns.FUA)
		if err := v.Maintain(); err != nil {
			t.Fatalf("Maintain: %v", err)
		}
		if g := v.Generation(0); g != 0 {
			t.Fatalf("Generation(0) after Maintain = %d, want 0", g)
		}
		if err := v.Unmount(); err != nil {
			t.Fatalf("Unmount: %v", err)
		}
		for _, omit := range []int{-1, v.lt.dataDev(0, 0, 0)} {
			clk, clones := vclock.New(), []*zns.Device{}
			for i, d := range devs {
				if i != omit {
					clones = append(clones, d.CrashClone(clk, nil, nil))
				}
			}
			clk.Run(func() {
				v2, err := Mount(clk, clones, DefaultConfig())
				if err != nil {
					t.Fatalf("Mount without device %d: %v", omit, err)
				}
				// Mount bumps the empty zone 1 once, from the zeroed value.
				if g0, g1 := v2.Generation(0), v2.Generation(1); g0 != 0 || g1 != 1 {
					t.Errorf("without device %d: generations %d, %d, want 0, 1", omit, g0, g1)
				}
				if wp := v2.Zone(0).WP; wp != 40 {
					t.Fatalf("without device %d: WP = %d, want 40", omit, wp)
				}
				checkReadV(t, v2, 0, 40)
			})
		}
	})
}

// TestOpenZoneAccounting drives open/close/reset/finish transitions and
// checks the open-slot count never leaks.
func TestOpenZoneAccounting(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		devs := newTestDevices(c, 5)
		cfg := DefaultConfig()
		cfg.MaxOpenZones = 3
		v, err := Create(c, devs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		zs := v.ZoneSectors()
		// Open 3 zones.
		for z := int64(0); z < 3; z++ {
			mustWriteV(t, v, z*zs, 4, 0)
		}
		// Fill zone 0 to full: frees a slot.
		mustWriteV(t, v, 4, int(zs)-4, 0)
		mustWriteV(t, v, 3*zs, 4, 0)
		// Finish zone 1: frees a slot.
		if err := v.FinishZone(1); err != nil {
			t.Fatal(err)
		}
		mustWriteV(t, v, 4*zs, 4, 0)
		// Reset zone 2: frees a slot.
		if err := v.ResetZone(2); err != nil {
			t.Fatal(err)
		}
		mustWriteV(t, v, 2*zs, 4, 0)
		// All slots used again: 3, 4, 2 are open.
		if err := v.Write(0, lbaPattern(v, 0, 1), 0); err != ErrZoneFull && err != ErrNotSequential {
			t.Errorf("full zone write error = %v", err)
		}
	})
}

// TestExplicitOpenReservesSlot covers OpenZone/CloseZone.
func TestExplicitOpenReservesSlot(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		devs := newTestDevices(c, 5)
		cfg := DefaultConfig()
		cfg.MaxOpenZones = 2
		v, err := Create(c, devs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := v.OpenZone(0); err != nil {
			t.Fatal(err)
		}
		if err := v.OpenZone(1); err != nil {
			t.Fatal(err)
		}
		if err := v.OpenZone(2); err != ErrTooManyOpen {
			t.Errorf("3rd open error = %v", err)
		}
		if err := v.CloseZone(0); err != nil { // nothing written: back to empty
			t.Fatal(err)
		}
		if st := v.Zone(0).State; st != zns.ZoneEmpty {
			t.Errorf("state = %v, want empty", st)
		}
		if err := v.OpenZone(2); err != nil {
			t.Errorf("open after close: %v", err)
		}
	})
}

// TestReadOnlyAfterWriteToReadOnlyVolume covers the read-only mode error
// paths.
func TestReadOnlyModeRejectsMutations(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 16, 0)
		v.FailDevice(0)
		v.FailDevice(1) // double failure -> read-only
		if err := v.ResetZone(0); err != ErrReadOnly {
			t.Errorf("reset error = %v", err)
		}
		if err := v.FinishZone(0); err != ErrReadOnly {
			t.Errorf("finish error = %v", err)
		}
	})
}

// PersistenceBitmap returns the persistence bitmap of zone z: one bit per
// stripe unit, set when that unit's written data is known durable (§5.3).
func (v *Volume) PersistenceBitmap(z int) []uint64 {
	lz := v.zones[z]
	lz.mu.Lock()
	persisted := lz.persistedWP
	lz.mu.Unlock()
	nSU := v.lt.zoneSectors() / v.lt.su
	bm := make([]uint64, (nSU+63)/64)
	for su := int64(0); su < nSU && su*v.lt.su < persisted; su++ {
		bm[su/64] |= 1 << (su % 64)
	}
	return bm
}
