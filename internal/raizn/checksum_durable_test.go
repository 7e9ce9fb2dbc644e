package raizn

import (
	"fmt"
	"testing"

	"raizn/internal/parity"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// TestChecksumRowsDurable is the durability matrix of the stripe-checksum
// rows: durable data keeps a durable row. Each case writes non-FUA full
// stripes, reaches one durability point, cuts power keeping only what the
// devices persisted (PowerLoss(nil)) and mounts; every zone must then
// carry exactly the rows of the complete stripes that point made durable,
// each one the CRC row of the data that reads back.
func TestChecksumRowsDurable(t *testing.T) {
	type rig struct {
		t    *testing.T
		v    *Volume
		devs []*zns.Device
		mask byte // xored into lbaPattern: tells generations of a zone apart
	}
	stripe := func(r *rig) int64 { return r.v.lt.stripeSectors() }
	write := func(r *rig, z int, off, n int64, flags zns.Flag) {
		r.t.Helper()
		lba := int64(z)*r.v.ZoneSectors() + off
		data := lbaPattern(r.v, lba, int(n))
		for i := range data {
			data[i] ^= r.mask
		}
		if err := r.v.Write(lba, data, flags); err != nil {
			r.t.Fatalf("Write(zone %d, [%d,%d)): %v", z, off, off+n, err)
		}
	}
	// stripes writes k non-FUA full stripes to zone z from its write pointer.
	stripes := func(r *rig, z int, k int64) {
		r.t.Helper()
		off := r.v.Zone(z).WP - int64(z)*r.v.ZoneSectors()
		write(r, z, off, k*stripe(r), 0)
	}
	rollGeneral := func(r *rig, dev int) {
		r.t.Helper()
		before := r.v.Stats().MetadataGCs
		for i := 0; r.v.Stats().MetadataGCs == before; i++ {
			if i > 64 {
				r.t.Fatalf("device %d's general log did not roll over", dev)
			}
			fut, _, err := r.v.md[dev].append(bigRecord(r.v, 30), zns.FUA)
			if err == nil {
				err = fut.Wait()
			}
			if err != nil {
				r.t.Fatalf("general append: %v", err)
			}
		}
	}

	cases := []struct {
		name string
		// run writes and reaches the durability point; want is the
		// coverage each zone must mount with (zones not named: 0).
		run  func(r *rig)
		want map[int]int64
	}{
		{"FUA write completing a stripe", func(r *rig) {
			stripes(r, 0, 3)
			write(r, 0, 3*stripe(r), 24, 0)
			write(r, 0, 3*stripe(r)+24, stripe(r)-24, zns.FUA)
		}, map[int]int64{0: 4}},
		{"FUA write inside a stripe", func(r *rig) {
			stripes(r, 0, 3)
			write(r, 0, 3*stripe(r), 8, zns.FUA)
		}, map[int]int64{0: 3}},
		{"Preflush write", func(r *rig) {
			stripes(r, 0, 3)
			stripes(r, 1, 2)
			write(r, 2, 0, 8, zns.Preflush)
		}, map[int]int64{0: 3, 1: 2}},
		{"SubmitFlush", func(r *rig) {
			stripes(r, 0, 3)
			stripes(r, 1, 2)
			if err := r.v.SubmitFlush().Wait(); err != nil {
				r.t.Fatalf("SubmitFlush: %v", err)
			}
		}, map[int]int64{0: 3, 1: 2}},
		{"FinishZone over a partial tail", func(r *rig) {
			stripes(r, 0, 3)
			write(r, 0, 3*stripe(r), 24, 0)
			if err := r.v.FinishZone(0); err != nil {
				r.t.Fatalf("FinishZone: %v", err)
			}
		}, map[int]int64{0: 3}},
		{"Unmount", func(r *rig) {
			stripes(r, 0, 3)
			stripes(r, 1, 2)
			if err := r.v.Unmount(); err != nil {
				r.t.Fatalf("Unmount: %v", err)
			}
		}, map[int]int64{0: 3, 1: 2}},
		{"metadata roll-over, then a FUA write", func(r *rig) {
			// The roll-over checkpoints zone 0's rows from memory; the FUA
			// write after it is the durability point.
			stripes(r, 0, 3)
			rollGeneral(r, r.v.checksumDev(0))
			write(r, 0, 3*stripe(r), 8, zns.FUA)
		}, map[int]int64{0: 3}},
		{"ResetZone", func(r *rig) {
			// Rows of the old generation are durable; the new generation
			// writes other data over fewer stripes, and none of the old
			// rows may come back.
			stripes(r, 0, 3)
			if err := r.v.Flush(); err != nil {
				r.t.Fatalf("Flush: %v", err)
			}
			if err := r.v.ResetZone(0); err != nil {
				r.t.Fatalf("ResetZone: %v", err)
			}
			r.mask = 0xA5
			stripes(r, 0, 1)
			write(r, 0, stripe(r), 8, zns.FUA)
		}, map[int]int64{0: 1}},
	}

	for _, env := range fuaEnvs() {
		for _, tc := range cases {
			env, tc := env, tc
			t.Run(env.name+"/"+tc.name, func(t *testing.T) {
				c := vclock.New()
				c.Run(func() {
					devs, v, err := env.create(c)
					if err != nil {
						t.Fatalf("Create: %v", err)
					}
					r := &rig{t: t, v: v, devs: devs}
					tc.run(r)
					for _, d := range devs {
						d.PowerLoss(nil)
					}
					if r.v, err = Mount(c, devs, env.cfg); err != nil {
						t.Fatalf("Mount: %v", err)
					}
					for z := 0; z < r.v.lt.numZones; z++ {
						if got, want := r.v.ChecksumCoverage(z), tc.want[z]; got != want {
							t.Errorf("zone %d: ChecksumCoverage = %d, want %d", z, got, want)
						}
						for s := int64(0); s < tc.want[z]; s++ {
							checkRow(t, r.v, z, s, r.mask)
						}
					}
				})
			})
		}
	}
}

// checkRow checks that stripe s of zone z has the CRC row of the data it
// must hold: lbaPattern xored with mask, and that data's parity.
func checkRow(t *testing.T, v *Volume, z int, s int64, mask byte) {
	t.Helper()
	got := v.StripeChecksums(z, s)
	if got == nil {
		t.Errorf("zone %d stripe %d: no row", z, s)
		return
	}
	ss := int64(v.sectorSize)
	data := lbaPattern(v, v.lt.stripeStart(z, s), int(v.lt.stripeSectors()))
	for i := range data {
		data[i] ^= mask
	}
	units := make([][]byte, v.lt.d)
	want := make([]uint32, 0, v.lt.d+1)
	for u := range units {
		units[u] = data[int64(u)*v.lt.su*ss : int64(u+1)*v.lt.su*ss]
		want = append(want, crcOf(units[u]))
	}
	want = append(want, crcOf(parity.Encode(units...)))
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("zone %d stripe %d: row %x, want %x", z, s, got, want)
	}
}
