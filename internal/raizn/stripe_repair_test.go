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
//     zone is read back, so the rebuilt pieces are read as survivors.
func TestStripeRepairFinishedTail(t *testing.T) {
	const su, stripe = 16, 64 // testDevConfig's array
	for _, kind := range []string{"compact", "rebuild"} {
		for _, env := range fuaEnvs() {
			for _, tail := range []int64{1, su - 1, su, su + 1, stripe - 1} {
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
	v := buildRemappedZone(t, c, devs, cfg)
	if v.lt.su != 16 || v.lt.n != 5 {
		t.Fatalf("array is %d devices with %d-sector units, the table assumes 5 and 16", v.lt.n, v.lt.su)
	}
	const s = 3 // the tail stripe
	n := s*v.lt.stripeSectors() + tail
	mustWriteV(t, v, s*v.lt.stripeSectors(), int(tail), 0)
	if err := v.FinishZone(0); err != nil {
		t.Fatalf("FinishZone: %v", err)
	}
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
	v, err := Mount(c, devs, cfg)
	if err != nil {
		t.Fatalf("Mount: %v", err)
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
	if kind == "compact" {
		readAll("compacted, device failed")
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
