package raizn

import (
	"fmt"
	"testing"

	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// TestStripeRepairFinishedTail drives the two whole-zone walks over a
// finished zone whose tail stripe is partial, so the parity device holds
// the stripe's sealed parity prefix. Zone 0 is buildRemappedZone's (three
// stripes with relocated fragments) plus tail sectors of stripe 3, then
// FinishZone and a remount. Each of stripe 3's devices, in unit order and
// parity last, is the victim in turn, on both engines:
//
//   - compact: the remount compacts the zone (RelocationThreshold 1), then
//     the victim fails and the zone is read back, so every lost unit is
//     rebuilt from what compaction left on the other devices;
//   - rebuild: the victim fails and is replaced (ReplaceDevice walks the
//     zone with its fragments live), then the next device fails and the
//     zone is read back, so the rebuilt pieces are read as survivors;
//   - burned: zone 0 is burnedTail's instead, whose tail stripe's parity
//     unit lies below the parity device's write pointer, so FinishZone
//     relocates the sealed parity prefix (§5.2). The victim fails and the
//     zone is read back, before and after a remount without it.
func TestStripeRepairFinishedTail(t *testing.T) {
	const su, stripe = 16, 64 // testDevConfig's array
	for _, kind := range []string{"compact", "rebuild", "burned"} {
		for _, env := range fuaEnvs() {
			tails := []int64{1, su - 1, su, su + 1, stripe - 1}
			if kind == "burned" {
				// A stripe short of less than one unit is whole again
				// after the mount: recovery rebuilds the missing sectors
				// from the parity unit.
				tails[4] = stripe - su - 1
			}
			for _, tail := range tails {
				for victim := 0; victim < 5; victim++ {
					kind, env, tail, victim := kind, env, tail, victim
					t.Run(fmt.Sprintf("%s/%s/tail%d/dev%d", kind, env.name, tail, victim), func(t *testing.T) {
						c := vclock.New()
						c.Run(func() { finishedTail(t, c, kind, env, tail, victim) })
					})
				}
			}
		}
	}
}

// finishedTail runs one TestStripeRepairFinishedTail case.
func finishedTail(t *testing.T, c *vclock.Clock, kind string, env fuaEnv, tail int64, victim int) {
	devs := make([]*zns.Device, 5)
	for i := range devs {
		devs[i] = zns.NewDevice(c, env.dev)
	}
	cfg := env.cfg
	if kind == "compact" {
		cfg.RelocationThreshold = 1
	}
	const s = 3 // the tail stripe
	var v *Volume
	if kind == "burned" {
		v = burnedTail(t, c, devs, cfg, s, tail)
	} else {
		v = buildRemappedZone(t, c, devs, cfg)
		mustWriteV(t, v, s*v.lt.stripeSectors(), int(tail), 0)
	}
	if v.lt.su != 16 || v.lt.n != 5 {
		t.Fatalf("array is %d devices with %d-sector units, the table assumes 5 and 16", v.lt.n, v.lt.su)
	}
	n := s*v.lt.stripeSectors() + tail
	if err := v.FinishZone(0); err != nil {
		t.Fatalf("FinishZone: %v", err)
	}
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
	var err error
	if kind != "burned" {
		if v, err = Mount(c, devs, cfg); err != nil {
			t.Fatalf("Mount: %v", err)
		}
	}
	if compacted := v.RelocationCount() == 0; compacted != (kind == "compact") {
		t.Fatalf("%s: %d relocations after the remount", kind, v.RelocationCount())
	}
	readAll := func(when string) {
		t.Helper()
		checkReadV(t, v, 0, int(n))
		for lba := n - tail; lba < n; lba++ {
			checkReadV(t, v, lba, 1)
		}
		if t.Failed() {
			t.Fatalf("%s: read back wrong", when)
		}
	}
	stripeDev := func(k int) int {
		if k == v.lt.d {
			return v.lt.parityDev(0, s)
		}
		return v.lt.dataDev(0, s, k)
	}
	if err := v.FailDevice(stripeDev(victim)); err != nil {
		t.Fatal(err)
	}
	switch kind {
	case "compact":
		readAll("compacted, device failed")
		return
	case "burned":
		readAll("finished, device failed")
		var rest []*zns.Device
		for i, d := range devs {
			if i != stripeDev(victim) {
				rest = append(rest, d)
			}
		}
		if v, err = Mount(c, rest, cfg); err != nil {
			t.Fatalf("Mount without the victim: %v", err)
		}
		readAll("remounted without the victim")
		return
	}
	if _, err := v.ReplaceDevice(zns.NewDevice(c, env.dev)); err != nil {
		t.Fatalf("ReplaceDevice: %v", err)
	}
	readAll("rebuilt")
	if err := v.FailDevice(stripeDev((victim + 1) % v.lt.n)); err != nil {
		t.Fatal(err)
	}
	readAll("rebuilt, next device failed")
}

// burnedTail builds zone 0 with stripes [0, s) flushed and stripe s
// written whole, then cuts the data devices back into stripe s so that
// only its first tail sectors survive while the parity device keeps the
// stripe's parity unit, and mounts. The mounted zone ends inside stripe s
// with the stripe's parity PBA below the parity device's write pointer.
func burnedTail(t *testing.T, c *vclock.Clock, devs []*zns.Device, cfg Config, s, tail int64) *Volume {
	t.Helper()
	v, err := Create(c, devs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stripe, su := v.lt.stripeSectors(), v.lt.su
	mustWriteV(t, v, 0, int(s*stripe), 0)
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
	mustWriteV(t, v, s*stripe, int(stripe), 0)
	for i, d := range devs {
		m := map[int]int64{}
		for z := 0; z < d.Config().NumZones; z++ {
			m[z] = d.Zone(z).WP - d.ZoneStart(z)
		}
		for k := 0; k < v.lt.d; k++ {
			if i == v.lt.dataDev(0, s, k) {
				m[0] = s*su + min(su, max(0, tail-int64(k)*su))
			}
		}
		d.PowerLossAt(m)
	}
	v, err = Mount(c, devs, cfg)
	if err != nil {
		t.Fatalf("Mount: %v", err)
	}
	if wp := v.Zone(0).WP; wp != s*stripe+tail {
		t.Fatalf("mounted zone 0 at %d, want %d", wp, s*stripe+tail)
	}
	p := v.lt.parityDev(0, s)
	if pba, wp := v.lt.parityPBA(0, s), devs[p].Zone(0).WP; pba >= wp {
		t.Fatalf("stripe %d parity at %d, not below the parity device's write pointer %d", s, pba, wp)
	}
	return v
}
