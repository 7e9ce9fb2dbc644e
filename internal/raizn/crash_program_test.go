package raizn

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"raizn/internal/obs"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// One crash property, one generator, fixed inputs. A seed expands into a
// 60-op program over three zones — writes of 1..24 sectors, a fifth of them
// FUA, a tenth Preflush, volume flushes and zone resets — then every device
// loses power, the array is mounted, and each zone must expose a prefix of
// what was written, at least as long as what was acknowledged durable, that
// reads back intact. Tier-1 runs the seeds below and the corpus under
// testdata/fuzz/FuzzCrashProgram, never a fresh draw: a seed the fuzzer
// finds is kept by committing its corpus file, not met again by luck.

// crashSeeds is the fixed program list. The two long ones lose an acked FUA
// write at the parent of the commit that fixed them: a reset whose
// generation counter was not on media when a FUA write of the next
// generation was acknowledged (TestResetThenFUASurvivesPowerLoss is the
// five-op form). 1498109563916315804 is the "flake" testing/quick drew
// about once in twenty tier-1 runs; the fuzz target found the other.
var crashSeeds = []int64{
	1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20,
	20250805, 1498109563916315804, 1900215778967351195,
}

// defaultCrashEnv is DefaultConfig() on the plain test devices.
func defaultCrashEnv() fuaEnv { return fuaEnvs()[0] }

// runCrashProgram runs seed's program on a fresh array of env. With
// pessimistic set every device keeps only its persisted prefixes after the
// cut (PowerLoss(nil)); otherwise each zone's cut is drawn from the seed's
// own stream, as testing/quick's TestCrashQuick did, so the seeds it found
// keep their meaning.
func runCrashProgram(t testing.TB, env fuaEnv, seed int64, pessimistic bool) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Errorf("%s seed %d pessimistic=%v: %s", env.name, seed, pessimistic, fmt.Sprintf(format, args...))
	}
	c := vclock.New()
	c.Run(func() {
		devs, v, err := env.create(c)
		if err != nil {
			fail("Create: %v", err)
			return
		}
		rng := rand.New(rand.NewSource(seed))
		zs := v.ZoneSectors()
		written := map[int]int64{}
		durable := map[int]int64{} // lower bound a crash must keep
		for op := 0; op < 60; op++ {
			z := rng.Intn(3)
			switch rng.Intn(10) {
			case 0:
				if v.ResetZone(z) == nil {
					written[z], durable[z] = 0, 0
				}
			case 1:
				if v.Flush() == nil {
					for z, n := range written {
						durable[z] = n
					}
				}
			default:
				n := int64(1 + rng.Intn(24))
				if written[z]+n > zs {
					continue
				}
				lba := int64(z)*zs + written[z]
				flags := zns.Flag(0)
				switch rng.Intn(10) {
				case 0, 1:
					flags = zns.FUA
				case 2:
					flags = zns.Preflush
				}
				if v.Write(lba, lbaPattern(v, lba, int(n)), flags) == nil {
					written[z] += n
					if flags&zns.FUA != 0 {
						durable[z] = written[z]
					}
					if flags&zns.Preflush != 0 {
						for z, n := range written {
							durable[z] = n
						}
					}
				}
			}
		}
		for _, d := range devs {
			if pessimistic {
				d.PowerLoss(nil)
			} else {
				d.PowerLoss(rng)
			}
		}
		v2, err := Mount(c, devs, env.cfg)
		if err != nil {
			fail("Mount: %v", err)
			return
		}
		for z := 0; z < 3; z++ {
			base := int64(z) * zs
			wp := v2.Zone(z).WP - base
			if wp > written[z] || wp < durable[z] {
				fail("zone %d: WP %d, want within [durable %d, written %d]", z, wp, durable[z], written[z])
				return
			}
			if wp == 0 {
				continue
			}
			buf := make([]byte, wp*int64(v2.SectorSize()))
			if err := v2.Read(base, buf); err != nil {
				fail("zone %d: read of the recovered prefix [0,%d): %v", z, wp, err)
				return
			}
			if !bytes.Equal(buf, lbaPattern(v2, base, int(wp))) {
				fail("zone %d: recovered prefix [0,%d) corrupted", z, wp)
				return
			}
		}
	})
}

// runCrashSeeds runs every seed under both cuts.
func runCrashSeeds(t *testing.T, env fuaEnv, seeds []int64) {
	t.Helper()
	for _, seed := range seeds {
		runCrashProgram(t, env, seed, false)
		runCrashProgram(t, env, seed, true)
	}
}

// TestCrashQuick: the fixed list on the default configuration.
func TestCrashQuick(t *testing.T) { runCrashSeeds(t, defaultCrashEnv(), crashSeeds) }

// TestCrashRandomizedAlwaysReadablePrefix: a second block of programs on
// the default configuration (the seeds its own loop used to walk, widened).
func TestCrashRandomizedAlwaysReadablePrefix(t *testing.T) {
	seeds := make([]int64, 24)
	for i := range seeds {
		seeds[i] = int64(101 + i)
	}
	runCrashSeeds(t, defaultCrashEnv(), seeds)
}

// TestCrashQuickAllModes: the fixed list on both parity engines.
func TestCrashQuickAllModes(t *testing.T) {
	for _, env := range fuaEnvs() {
		env := env
		t.Run(env.name, func(t *testing.T) { runCrashSeeds(t, env, crashSeeds) })
	}
}

// FuzzCrashProgram is where new programs come from: `go test -fuzz
// FuzzCrashProgram ./internal/raizn` mutates the seed; without -fuzz (tier-1)
// it replays crashSeeds and the committed corpus only.
func FuzzCrashProgram(f *testing.F) {
	for _, seed := range crashSeeds {
		f.Add(seed)
	}
	env := defaultCrashEnv()
	f.Fuzz(func(t *testing.T, seed int64) {
		runCrashProgram(t, env, seed, false)
		runCrashProgram(t, env, seed, true)
	})
}

// TestResetThenFUASurvivesPowerLoss is ROADMAP item 1's five-op repro: a
// zone holding unflushed data is reset, and a FUA write of its next
// generation is acknowledged with no flush in between. The reset WAL is on
// media (FUA); unless the new generation counter is too, mount finds the
// WAL current and finishes the reset over the acked data (zone 1 WP 0, want
// 17). Every parity mode and the zraid engine share the reset path.
func TestResetThenFUASurvivesPowerLoss(t *testing.T) {
	for _, env := range fuaEnvs() {
		env := env
		t.Run(env.name, func(t *testing.T) {
			c := vclock.New()
			c.Run(func() {
				devs, v, err := env.create(c)
				if err != nil {
					t.Fatalf("Create: %v", err)
				}
				zs := v.ZoneSectors()
				mustWriteV(t, v, zs, 35, 0)
				if err := v.ResetZone(1); err != nil {
					t.Fatalf("ResetZone: %v", err)
				}
				mustWriteV(t, v, zs, 15, 0)
				mustWriteV(t, v, zs+15, 2, zns.FUA)
				for _, d := range devs {
					d.PowerLoss(nil)
				}
				v2, err := Mount(c, devs, env.cfg)
				if err != nil {
					t.Fatalf("Mount: %v", err)
				}
				if wp := v2.Zone(1).WP - zs; wp != 17 {
					t.Fatalf("zone 1 WP = %d, want 17", wp)
				}
				checkReadV(t, v2, zs, 17)
			})
		})
	}
}

// TestResetThenFUAOtherOrders shows mount is safe in the orders the FUA
// counter makes possible. (1) Power is cut while the counters are being
// appended: with the WAL on media, and the new generation on none, some or
// all of the devices, mount ends with the zone empty at a newer generation
// — the newest counter anywhere wins, a WAL it makes stale is ignored, a
// WAL still current finishes a reset that has nothing left to do. (2) The
// counter is durable and a WAL copy is lost with its device: the surviving
// copy is stale against the counter and the next generation's acked data
// stays.
func TestResetThenFUAOtherOrders(t *testing.T) {
	var caps []*crashCapture
	var oldGen uint64
	var zs int64
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		zs = v.ZoneSectors()
		mustWriteV(t, v, zs, 35, 0)
		oldGen = v.Generation(1)
		physDone := false
		v.AttachHook(func(p obs.HookPoint) {
			switch {
			case p.Name == "raizn.reset.phys":
				physDone = true
			case physDone && p.Name == "raizn.md.append":
				caps = append(caps, captureCrash(devs, len(caps)))
			case p.Name == "raizn.reset.done":
				physDone = false
			}
		})
		if err := v.ResetZone(1); err != nil {
			t.Fatalf("ResetZone: %v", err)
		}
		v.AttachHook(nil)
		mustWriteV(t, v, zs, 17, zns.FUA)

		walDevs := []int{v.lt.dataDev(1, 0, 0), v.lt.parityDev(1, 0)}
		for _, lost := range walDevs {
			clk, avail := vclock.New(), make([]*zns.Device, 0, len(devs)-1)
			for i, d := range devs {
				if i != lost {
					avail = append(avail, d.CrashClone(clk, nil, nil))
				}
			}
			clk.Run(func() {
				v2, err := Mount(clk, avail, DefaultConfig())
				if err != nil {
					t.Fatalf("Mount without WAL device %d: %v", lost, err)
				}
				if wp := v2.Zone(1).WP - zs; wp != 17 {
					t.Fatalf("without WAL device %d: zone 1 WP = %d, want 17", lost, wp)
				}
				checkReadV(t, v2, zs, 17)
			})
		}
	})
	if len(caps) != 5 {
		t.Fatalf("captured %d generation-counter appends, want one per device", len(caps))
	}
	for _, cc := range caps {
		for _, variant := range cc.variants() {
			variant.clk.Run(func() {
				v2, err := Mount(variant.clk, variant.devs, DefaultConfig())
				if err != nil {
					t.Fatalf("counter append %d/%s: Mount: %v", cc.k, variant.name, err)
				}
				if zd := v2.Zone(1); zd.WP != zs || zd.State != zns.ZoneEmpty {
					t.Errorf("counter append %d/%s: zone 1 = %+v, want empty", cc.k, variant.name, zd)
				}
				if g := v2.Generation(1); g <= oldGen {
					t.Errorf("counter append %d/%s: generation %d, want above %d", cc.k, variant.name, g, oldGen)
				}
				mustWriteV(t, v2, zs, 20, zns.FUA)
				checkReadV(t, v2, zs, 20)
			})
		}
	}
}
