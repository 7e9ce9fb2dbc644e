package raizn

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// TestPropertyScrubNeverLosesAckedData is the subsystem's core safety
// property: under any seeded mix of writes, flushes, bit-rot injection,
// scrub passes, power loss, and remount, every sector below each zone's
// recovered write pointer reads back exactly the data that was written
// there — scrub repairs rot and never "repairs" good data into bad.
//
// Rot is confined to complete, flushed stripes: those are the ones the
// checksum table covers (the partial tail stripe is protected against
// device loss by parity, but single-unit rot there is not attributable).
func TestPropertyScrubNeverLosesAckedData(t *testing.T) {
	if testing.Short() {
		t.Skip("property test runs many simulations")
	}
	prop := func(seed int64) bool {
		return scrubScenarioHolds(t, seed)
	}
	cfg := &quick.Config{
		MaxCount: 12,
		Rand:     rand.New(rand.NewSource(20250805)),
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func scrubScenarioHolds(t *testing.T, seed int64) bool {
	t.Helper()
	ok := true
	c := vclock.New()
	c.Run(func() {
		rng := rand.New(rand.NewSource(seed))
		devs := make([]*zns.Device, 5)
		for i := range devs {
			devs[i] = zns.NewDevice(c, testDevConfig())
		}
		v, err := Create(c, devs, DefaultConfig())
		if err != nil {
			t.Errorf("seed %d: Create: %v", seed, err)
			ok = false
			return
		}

		const nZones = 3
		zs := v.ZoneSectors()
		stripeSec := v.StripeSectors()
		wp := make([]int64, nZones)      // sectors written per zone
		flushed := make([]int64, nZones) // sectors flushed per zone
		rotted := map[[2]int64]bool{}    // (zone, stripe) already rotted

		scrubAll := func(vol *Volume) bool {
			for z := 0; z < nZones; z++ {
				for s := int64(0); s < vol.StripesPerZone(); s++ {
					res, err := vol.ScrubStripe(z, s)
					if err != nil {
						t.Errorf("seed %d: ScrubStripe(%d,%d): %v", seed, z, s, err)
						return false
					}
					if res.Unrepaired {
						t.Errorf("seed %d: stripe (%d,%d) unrepaired", seed, z, s)
						return false
					}
				}
			}
			return true
		}

		// Random operation mix.
		for op := 0; op < 40; op++ {
			switch rng.Intn(6) {
			case 0, 1, 2: // write a chunk to a random non-full zone
				z := rng.Intn(nZones)
				if wp[z] >= zs {
					continue
				}
				n := int64(1 + rng.Intn(48))
				if wp[z]+n > zs {
					n = zs - wp[z]
				}
				lba := int64(z)*zs + wp[z]
				if err := v.Write(lba, lbaPattern(v, lba, int(n)), 0); err != nil {
					t.Errorf("seed %d: write z%d+%d: %v", seed, z, wp[z], err)
					ok = false
					return
				}
				wp[z] += n
			case 3: // flush
				if err := v.Flush(); err != nil {
					t.Errorf("seed %d: flush: %v", seed, err)
					ok = false
					return
				}
				copy(flushed, wp)
			case 4: // rot one sector in a complete, flushed stripe
				z := rng.Intn(nZones)
				stripes := flushed[z] / stripeSec
				if stripes == 0 {
					continue
				}
				s := rng.Int63n(stripes)
				if rotted[[2]int64{int64(z), s}] {
					continue
				}
				rotted[[2]int64{int64(z), s}] = true
				u := rng.Intn(v.lt.n) // any unit, parity included
				dev, pba := unitSectorPBA(v, z, s, u, rng.Int63n(v.lt.su))
				if err := devs[dev].CorruptSector(pba); err != nil {
					t.Errorf("seed %d: corrupt (%d,%d,%d): %v", seed, z, s, u, err)
					ok = false
					return
				}
			case 5: // scrub cycle
				if !scrubAll(v) {
					ok = false
					return
				}
				// Stripes verified (or repaired) this pass are clean
				// again; allow future rot there.
				for k := range rotted {
					delete(rotted, k)
				}
			}
		}

		// Power loss on every device, then remount and a final repair
		// scrub over whatever survived.
		if err := v.Flush(); err != nil {
			t.Errorf("seed %d: final flush: %v", seed, err)
			ok = false
			return
		}
		copy(flushed, wp)
		for _, d := range devs {
			d.PowerLoss(rng)
		}
		v2, err := Mount(c, devs, DefaultConfig())
		if err != nil {
			t.Errorf("seed %d: mount: %v", seed, err)
			ok = false
			return
		}
		if !scrubAll(v2) {
			ok = false
			return
		}

		// The invariant: every zone recovered at least its flushed
		// prefix, and every sector below the recovered WP holds its
		// pattern.
		for z := 0; z < nZones; z++ {
			rwp := v2.Zone(z).WP - int64(z)*zs
			if rwp < flushed[z] {
				t.Errorf("seed %d: z%d recovered WP %d < flushed %d", seed, z, rwp, flushed[z])
				ok = false
				return
			}
			if rwp == 0 {
				continue
			}
			base := int64(z) * zs
			buf := make([]byte, rwp*int64(v2.SectorSize()))
			if err := v2.Read(base, buf); err != nil {
				t.Errorf("seed %d: z%d readback: %v", seed, z, err)
				ok = false
				return
			}
			if !bytes.Equal(buf, lbaPattern(v2, base, int(rwp))) {
				t.Errorf("seed %d: z%d data mismatch below recovered WP %d", seed, z, rwp)
				ok = false
				return
			}
		}
	})
	return ok
}
