package zns

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"raizn/internal/vclock"
)

// TestPowerLossAtEdges tables the corner cases of the deterministic
// power-loss primitive: cut clamping against the flushed prefix and the
// write pointer, zones absent from the cut map, finished zones, fullness
// durability, and open-zone accounting across the cycle.
func TestPowerLossAtEdges(t *testing.T) {
	cases := []struct {
		name   string
		setup  func(t *testing.T, d *Device)
		cuts   map[int]int64
		verify func(t *testing.T, d *Device)
	}{
		{
			name: "cut beyond wp clamps down",
			setup: func(t *testing.T, d *Device) {
				mustWrite(t, d, 0, pattern(testConfig(), 6, 1), 0)
			},
			cuts: map[int]int64{0: 40},
			verify: func(t *testing.T, d *Device) {
				if wp := d.Zone(0).WP; wp != 6 {
					t.Errorf("WP = %d, want clamp to written 6", wp)
				}
			},
		},
		{
			name: "cut below flushed prefix clamps up",
			setup: func(t *testing.T, d *Device) {
				mustWrite(t, d, 0, pattern(testConfig(), 4, 1), 0)
				if err := d.Flush().Wait(); err != nil {
					t.Fatal(err)
				}
				mustWrite(t, d, 4, pattern(testConfig(), 4, 2), 0)
			},
			cuts: map[int]int64{0: 1},
			verify: func(t *testing.T, d *Device) {
				if wp := d.Zone(0).WP; wp != 4 {
					t.Errorf("WP = %d, want flushed 4", wp)
				}
				got := mustRead(t, d, 0, 4)
				if !bytes.Equal(got, pattern(testConfig(), 4, 1)) {
					t.Error("flushed prefix corrupted by cut")
				}
			},
		},
		{
			name: "zero cut with only unflushed data empties the zone",
			setup: func(t *testing.T, d *Device) {
				mustWrite(t, d, 0, pattern(testConfig(), 5, 1), 0)
			},
			cuts: map[int]int64{0: 0},
			verify: func(t *testing.T, d *Device) {
				zd := d.Zone(0)
				if zd.WP != 0 || zd.State != ZoneEmpty {
					t.Errorf("zone = wp %d state %v, want empty at 0", zd.WP, zd.State)
				}
			},
		},
		{
			name: "zone absent from the map keeps only its flushed prefix",
			setup: func(t *testing.T, d *Device) {
				mustWrite(t, d, 0, pattern(testConfig(), 3, 1), 0)
				if err := d.Flush().Wait(); err != nil {
					t.Fatal(err)
				}
				mustWrite(t, d, 3, pattern(testConfig(), 3, 2), 0)
			},
			cuts: map[int]int64{1: 0}, // zone 0 unlisted
			verify: func(t *testing.T, d *Device) {
				if wp := d.Zone(0).WP; wp != 3 {
					t.Errorf("unlisted zone WP = %d, want flushed 3", wp)
				}
			},
		},
		{
			name: "finished zone stays full and keeps its data",
			setup: func(t *testing.T, d *Device) {
				mustWrite(t, d, 0, pattern(testConfig(), 4, 1), 0)
				if err := d.FinishZone(0).Wait(); err != nil {
					t.Fatal(err)
				}
			},
			cuts: map[int]int64{0: 0},
			verify: func(t *testing.T, d *Device) {
				zd := d.Zone(0)
				if zd.State != ZoneFull {
					t.Errorf("finished zone state = %v, want full", zd.State)
				}
				got := mustRead(t, d, 0, 4)
				if !bytes.Equal(got, pattern(testConfig(), 4, 1)) {
					t.Error("finished zone content lost")
				}
			},
		},
		{
			name: "unflushed fullness is not durable",
			setup: func(t *testing.T, d *Device) {
				cfg := testConfig()
				mustWrite(t, d, 0, pattern(cfg, int(cfg.ZoneCap), 1), 0)
				if st := d.Zone(0).State; st != ZoneFull {
					t.Fatalf("pre-crash state = %v, want full", st)
				}
			},
			cuts: map[int]int64{0: 10},
			verify: func(t *testing.T, d *Device) {
				zd := d.Zone(0)
				if zd.WP != 10 || zd.State != ZoneClosed {
					t.Errorf("zone = wp %d state %v, want closed at 10", zd.WP, zd.State)
				}
			},
		},
		{
			name: "open zones close and the open count drops to zero",
			setup: func(t *testing.T, d *Device) {
				mustWrite(t, d, 0, pattern(testConfig(), 2, 1), 0)
				mustWrite(t, d, d.ZoneStart(1), pattern(testConfig(), 2, 2), 0)
				if n := d.OpenZoneCount(); n != 2 {
					t.Fatalf("pre-crash open zones = %d, want 2", n)
				}
			},
			cuts: map[int]int64{0: 2, 1: 2},
			verify: func(t *testing.T, d *Device) {
				if n := d.OpenZoneCount(); n != 0 {
					t.Errorf("open zones after cycle = %d, want 0", n)
				}
				for z := 0; z < 2; z++ {
					if st := d.Zone(z).State; st != ZoneClosed {
						t.Errorf("zone%d state = %v, want closed", z, st)
					}
				}
			},
		},
		{
			name: "mid-extent cut preserves the exact byte prefix",
			setup: func(t *testing.T, d *Device) {
				cfg := testConfig()
				segs := [][]byte{pattern(cfg, 3, 1), pattern(cfg, 3, 2), pattern(cfg, 2, 3)}
				if err := d.Writev(0, segs, 0).Wait(); err != nil {
					t.Fatal(err)
				}
			},
			cuts: map[int]int64{0: 5},
			verify: func(t *testing.T, d *Device) {
				cfg := testConfig()
				if wp := d.Zone(0).WP; wp != 5 {
					t.Fatalf("WP = %d, want 5", wp)
				}
				want := append(pattern(cfg, 3, 1), pattern(cfg, 3, 2)[:2*cfg.SectorSize]...)
				if got := mustRead(t, d, 0, 5); !bytes.Equal(got, want) {
					t.Error("surviving prefix differs from the written bytes")
				}
				// The zone must accept sequential writes exactly at the cut.
				mustWrite(t, d, 5, pattern(cfg, 1, 4), 0)
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run(t, testConfig(), func(c *vclock.Clock, d *Device) {
				tc.setup(t, d)
				d.PowerLossAt(tc.cuts)
				tc.verify(t, d)
			})
		})
	}
}

// TestPowerCutEntryPointsAgree checks that the three power-cut entry points
// state one rule: from one seeded device state, PowerLoss(rand(s)) leaves
// the device as CrashClone(nil, rand(s), nil) leaves its clone, and
// PowerLossAt(cuts) as CrashClone(nil, nil, cuts) does — the same write
// pointer, persisted write pointer and state in every zone, and the same
// bytes below each write pointer. The state mixes flushed, FUA, unflushed,
// in-flight, ZRWA-overwritten, full, finished and empty zones.
func TestPowerCutEntryPointsAgree(t *testing.T) {
	cfg := extTestConfig()
	cfg.MaxOpenZones, cfg.MaxActiveZones = 8, 8
	build := func(t *testing.T, d *Device, s int64) {
		t.Helper()
		rng := rand.New(rand.NewSource(s))
		n := func(lo int) int { return lo + rng.Intn(6) }
		z := func(i int) int64 { return d.ZoneStart(i) }
		mustWrite(t, d, z(0), pattern(cfg, n(1), 1), FUA)
		mustWrite(t, d, d.Zone(0).WP, pattern(cfg, n(1), 2), 0)
		mustWrite(t, d, z(1), pattern(cfg, n(2), 3), 0)
		if err := d.Flush().Wait(); err != nil {
			t.Fatal(err)
		}
		mustWrite(t, d, d.Zone(1).WP, pattern(cfg, n(3), 4), 0)
		mustWrite(t, d, z(2), pattern(cfg, n(6), 5), 0)
		mustWrite(t, d, d.Zone(2).WP-3, pattern(cfg, n(4), 6), ZRWA)
		mustWrite(t, d, z(3), pattern(cfg, int(cfg.ZoneCap), 7), 0)
		mustWrite(t, d, z(4), pattern(cfg, n(1), 8), 0)
		if err := d.FinishZone(4).Wait(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, fut := d.Append(6, pattern(cfg, n(1), byte(9+i)), 0); i < 2 {
				mustWait(t, "append", fut)
			} // the last append is still in flight at the cut
		}
	}
	type zoneState struct {
		desc  ZoneDesc
		bytes []byte
	}
	capture := func(t *testing.T, d *Device) []zoneState {
		t.Helper()
		out := make([]zoneState, cfg.NumZones)
		for i := range out {
			out[i].desc = d.Zone(i)
			if n := int(out[i].desc.WP - d.ZoneStart(i)); n > 0 {
				out[i].bytes = mustRead(t, d, d.ZoneStart(i), n)
			}
		}
		return out
	}
	compare := func(t *testing.T, what string, got, want []zoneState) {
		t.Helper()
		for i := range want {
			if got[i].desc != want[i].desc || !bytes.Equal(got[i].bytes, want[i].bytes) {
				t.Errorf("%s zone %d: device %+v, clone %+v (bytes equal %v)",
					what, i, got[i].desc, want[i].desc, bytes.Equal(got[i].bytes, want[i].bytes))
			}
		}
	}
	for s := int64(1); s <= 20; s++ {
		run(t, cfg, func(c *vclock.Clock, d *Device) {
			build(t, d, s)
			cl := d.CrashClone(nil, rand.New(rand.NewSource(s)), nil)
			d.PowerLoss(rand.New(rand.NewSource(s)))
			compare(t, fmt.Sprintf("seed %d PowerLoss", s), capture(t, d), capture(t, cl))
		})
		run(t, cfg, func(c *vclock.Clock, d *Device) {
			build(t, d, s)
			rng := rand.New(rand.NewSource(-s))
			cuts := map[int]int64{}
			for z := 0; z < cfg.NumZones; z++ {
				if rng.Intn(4) > 0 {
					cuts[z] = int64(rng.Intn(int(cfg.ZoneCap) + 4))
				}
			}
			cl := d.CrashClone(nil, nil, cuts)
			d.PowerLossAt(cuts)
			compare(t, fmt.Sprintf("seed %d PowerLossAt", s), capture(t, d), capture(t, cl))
		})
	}
}
