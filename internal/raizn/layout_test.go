package raizn

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"raizn/internal/vclock"
	"raizn/internal/zns"
)

func testLayout() *layout {
	return &layout{
		n: 5, d: 4, su: 16,
		physZoneSize: 80, physZoneCap: 64,
		numZones: 5, mdZones: 3,
	}
}

func TestLayoutGeometry(t *testing.T) {
	lt := testLayout()
	if got := lt.stripeSectors(); got != 64 {
		t.Errorf("stripeSectors = %d, want 64", got)
	}
	if got := lt.zoneSectors(); got != 256 {
		t.Errorf("zoneSectors = %d, want 256", got)
	}
	if got := lt.stripesPerZone(); got != 4 {
		t.Errorf("stripesPerZone = %d, want 4", got)
	}
	if got := lt.numSectors(); got != 1280 {
		t.Errorf("numSectors = %d, want 1280", got)
	}
}

func TestParityRotation(t *testing.T) {
	lt := testLayout()
	// Within a zone, consecutive stripes use different parity devices,
	// cycling through all n devices.
	seen := map[int]bool{}
	for s := int64(0); s < int64(lt.n); s++ {
		p := lt.parityDev(0, s)
		if p < 0 || p >= lt.n {
			t.Fatalf("parityDev out of range: %d", p)
		}
		seen[p] = true
	}
	if len(seen) != lt.n {
		t.Errorf("parity rotation covered %d devices, want %d", len(seen), lt.n)
	}
	// Zone offset shifts the rotation (per-zone rotation, §5.2).
	if lt.parityDev(0, 0) == lt.parityDev(1, 0) {
		t.Error("parity rotation does not vary by zone")
	}
}

func TestDataDevDisjointFromParity(t *testing.T) {
	lt := testLayout()
	for z := 0; z < lt.numZones; z++ {
		for s := int64(0); s < lt.stripesPerZone(); s++ {
			p := lt.parityDev(z, s)
			used := map[int]bool{p: true}
			for u := 0; u < lt.d; u++ {
				dev := lt.dataDev(z, s, u)
				if used[dev] {
					t.Fatalf("z=%d s=%d: device %d used twice", z, s, dev)
				}
				used[dev] = true
			}
		}
	}
}

func TestUnitOfDevInverse(t *testing.T) {
	lt := testLayout()
	for z := 0; z < lt.numZones; z++ {
		for s := int64(0); s < lt.stripesPerZone(); s++ {
			for u := 0; u < lt.d; u++ {
				dev := lt.dataDev(z, s, u)
				if got := lt.unitOfDev(z, s, dev); got != u {
					t.Fatalf("unitOfDev(%d,%d,%d) = %d, want %d", z, s, dev, got, u)
				}
			}
			if got := lt.unitOfDev(z, s, lt.parityDev(z, s)); got != -1 {
				t.Fatalf("unitOfDev of parity device = %d, want -1", got)
			}
		}
	}
}

func TestLocateProperties(t *testing.T) {
	lt := testLayout()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lba := rng.Int63n(lt.numSectors())
		a := lt.locate(lba)
		z := lt.zoneOf(lba)
		// PBA lands inside physical zone z.
		if a.pba < int64(z)*lt.physZoneSize || a.pba >= int64(z)*lt.physZoneSize+lt.physZoneCap {
			return false
		}
		// The device is the data device of the right stripe/unit.
		off := lba - lt.zoneStart(z)
		s := off / lt.stripeSectors()
		u := int((off % lt.stripeSectors()) / lt.su)
		return a.dev == lt.dataDev(z, s, u)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLocateBijectivePerDevice(t *testing.T) {
	// Distinct LBAs must never map to the same (device, PBA).
	lt := testLayout()
	seen := make(map[addr]int64)
	for lba := int64(0); lba < lt.numSectors(); lba++ {
		a := lt.locate(lba)
		if prev, ok := seen[a]; ok {
			t.Fatalf("LBA %d and %d both map to %+v", prev, lba, a)
		}
		seen[a] = lba
	}
}

func TestIntraRegions(t *testing.T) {
	lt := testLayout() // su = 16
	cases := []struct {
		a, b int64
		want []intraInterval
	}{
		{0, 4, []intraInterval{{0, 4}}},             // inside unit 0
		{20, 28, []intraInterval{{4, 12}}},          // inside unit 1
		{12, 20, []intraInterval{{12, 16}, {0, 4}}}, // wraps unit boundary
		{0, 16, []intraInterval{{0, 16}}},           // exactly one unit
		{8, 40, []intraInterval{{0, 16}}},           // >= su: whole range
		{28, 32, []intraInterval{{12, 16}}},         // ends at boundary
	}
	for _, c := range cases {
		regs, n := lt.intraRegions(c.a, c.b)
		got := regs[:n]
		if len(got) != len(c.want) {
			t.Errorf("intraRegions(%d,%d) = %v, want %v", c.a, c.b, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("intraRegions(%d,%d) = %v, want %v", c.a, c.b, got, c.want)
			}
		}
	}
}

func TestIntraRegionsCoverWriteLength(t *testing.T) {
	lt := testLayout()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		start := rng.Int63n(lt.stripeSectors() - 1)
		end := start + 1 + rng.Int63n(lt.stripeSectors()-start)
		var total int64
		regs, n := lt.intraRegions(start, end)
		for _, r := range regs[:n] {
			if r.a < 0 || r.b > lt.su || r.a >= r.b {
				return false
			}
			total += r.b - r.a
		}
		want := end - start
		if want > lt.su {
			want = lt.su
		}
		return total == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnitFills(t *testing.T) {
	lt := testLayout()
	fills := lt.unitFills(20) // unit0 full(16) + unit1 partial(4)
	want := []int64{16, 4, 0, 0}
	for i := range want {
		if fills[i] != want[i] {
			t.Errorf("unitFills(20) = %v, want %v", fills, want)
			break
		}
	}
	fills = lt.unitFills(64)
	for _, f := range fills {
		if f != 16 {
			t.Errorf("unitFills(full) = %v", fills)
			break
		}
	}
}

// TestStripePiece pins which sectors of stripe 0 of zone 0 (data units 0..3
// on devices 0..3, parity on device 4) each device holds.
func TestStripePiece(t *testing.T) {
	lt := testLayout()
	for _, c := range []struct {
		g      int64
		sealed bool
		want   [5]int64 // sectors per device
	}{
		{0, false, [5]int64{0, 0, 0, 0, 0}},
		{0, true, [5]int64{0, 0, 0, 0, 0}},
		{20, false, [5]int64{16, 4, 0, 0, 0}},     // open: parity with the engine
		{20, true, [5]int64{16, 4, 0, 0, 16}},     // sealed: prefix parity
		{9, true, [5]int64{9, 0, 0, 0, 9}},        // sealed prefix shorter than a unit
		{64, false, [5]int64{16, 16, 16, 16, 16}}, // complete
	} {
		for dev, want := range c.want {
			wantUnit := dev
			if dev == 4 {
				wantUnit = lt.d
			}
			if u, n := lt.stripePiece(0, 0, dev, c.g, c.sealed); u != wantUnit || n != want {
				t.Errorf("stripePiece(g=%d, sealed=%v, dev %d) = (%d, %d), want (%d, %d)", c.g, c.sealed, dev, u, n, wantUnit, want)
			}
		}
	}
}

func TestMDZoneIndex(t *testing.T) {
	lt := testLayout()
	if got := lt.mdZoneIndex(0); got != 5 {
		t.Errorf("mdZoneIndex(0) = %d, want 5", got)
	}
	if got := lt.mdZoneIndex(2); got != 7 {
		t.Errorf("mdZoneIndex(2) = %d, want 7", got)
	}
}

// TestUnitLocationHoldsUnitBytes reads every stripe unit of a full zone
// straight off the device and sector UnitLocation names: data unit u
// holds its LBAs' bytes and unit d the XOR of the data units.
func TestUnitLocationHoldsUnitBytes(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		const z = 1 // a zone whose rotation does not start on device n-1
		zs := v.ZoneSectors()
		mustWriteV(t, v, int64(z)*zs, int(zs), 0)
		if err := v.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		su := v.lt.su
		unitBytes := int(su) * v.SectorSize()
		for s := int64(0); s < v.StripesPerZone(); s++ {
			parity := make([]byte, unitBytes)
			for u := 0; u <= v.lt.d; u++ {
				dev, sector := v.UnitLocation(z, s, u)
				got := make([]byte, unitBytes)
				if err := devs[dev].Read(sector, got).Wait(); err != nil {
					t.Fatalf("stripe %d unit %d: read dev %d sector %d: %v", s, u, dev, sector, err)
				}
				if u == v.lt.d {
					if !bytes.Equal(got, parity) {
						t.Errorf("stripe %d: dev %d sector %d does not hold the XOR of the data units", s, dev, sector)
					}
					continue
				}
				lba := int64(z)*zs + s*v.StripeSectors() + int64(u)*su
				if !bytes.Equal(got, lbaPattern(v, lba, int(su))) {
					t.Errorf("stripe %d unit %d: dev %d sector %d does not hold LBAs %d..%d", s, u, dev, sector, lba, lba+su)
				}
				for i := range parity {
					parity[i] ^= got[i]
				}
			}
		}
	})
}
