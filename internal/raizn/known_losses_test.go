package raizn

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"raizn/internal/obs"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// knownLossesGolden is the ledger of the acked-write losses that still
// reproduce: one row per repro and engine. A fix flips its own row to the
// acked WP, err=none and match=true in the same change (13, a double fault
// single parity cannot repair, to err=checksum: an honest error), and an
// mo-degraded count may only fall. A row may only be re-recorded toward
// that state; any other move is a regression.
const knownLossesGolden = "testdata/known_losses.golden"

// lossOutcome is what a repro's final read saw: the zone's WP on the
// volume that served it (after the repro's mount, if it has one), the
// read's error class and whether the acked bytes came back.
type lossOutcome struct {
	wp    int64
	err   string
	match bool
}

func (o lossOutcome) String() string {
	wp := "-"
	if o.wp >= 0 {
		wp = fmt.Sprint(o.wp)
	}
	return fmt.Sprintf("wp=%s err=%s match=%t", wp, o.err, o.match)
}

// readLoss reads back zone 0's first n sectors, all acked with
// lbaPattern, and classifies the result.
func readLoss(v *Volume, n int) lossOutcome {
	buf := make([]byte, n*v.SectorSize())
	err := v.Read(0, buf)
	o := lossOutcome{wp: v.Zone(0).WP, err: "none", match: err == nil && bytes.Equal(buf, lbaPattern(v, 0, n))}
	switch {
	case errors.Is(err, ErrReadBeyondWP):
		o.err = "beyond-wp"
	case errors.Is(err, ErrChecksumMismatch):
		o.err = "checksum"
	case err != nil:
		o.err = "other"
	}
	return o
}

// mountLoss mounts devs without device missing and reads back n sectors.
func mountLoss(c *vclock.Clock, env fuaEnv, devs []*zns.Device, missing, n int) lossOutcome {
	var avail []*zns.Device
	for i, d := range devs {
		if i != missing {
			avail = append(avail, d)
		}
	}
	v, err := Mount(c, avail, env.cfg)
	if err != nil {
		return lossOutcome{wp: -1, err: "mount"}
	}
	return readLoss(v, n)
}

// The repros, each from the ROADMAP item it is named after.
var knownLosses = []struct {
	item    string
	engines []string // fuaEnv names
	run     func(t *testing.T, c *vclock.Clock, env fuaEnv, devs []*zns.Device, v *Volume) lossOutcome
}{
	// 2(c): 8 sectors, then 4 with FUA, all in unit 0; power cut; mount
	// without unit 0's device. No surviving data device wrote the zone.
	{"2c", []string{"EngineLogged", "EngineZRAID"}, func(t *testing.T, c *vclock.Clock, env fuaEnv, devs []*zns.Device, v *Volume) lossOutcome {
		mustWriteV(t, v, 0, 8, 0)
		mustWriteV(t, v, 8, 4, zns.FUA)
		for _, d := range devs {
			d.PowerLoss(nil)
		}
		return mountLoss(c, env, devs, v.lt.dataDev(0, 0, 0), 12)
	}},
	// 2(a): unit 1's device fails; FUA writes of 16, 4, 3 and 2 sectors;
	// power cut on the others; mount without the failed device.
	{"2a", []string{"EngineLogged", "EngineZRAID"}, func(t *testing.T, c *vclock.Clock, env fuaEnv, devs []*zns.Device, v *Volume) lossOutcome {
		victim := v.lt.dataDev(0, 0, 1)
		if err := v.FailDevice(victim); err != nil {
			t.Fatal(err)
		}
		lba := int64(0)
		for _, n := range []int{16, 4, 3, 2} {
			mustWriteV(t, v, lba, n, zns.FUA)
			lba += int64(n)
		}
		for i, d := range devs {
			if i != victim {
				d.PowerLoss(nil)
			}
		}
		return mountLoss(c, env, devs, victim, int(lba))
	}},
	// 2(b): the metadata-GC rig's zones 0-2 each hold an open stripe whose
	// partial parity logs to one device. FUA-write 8 sectors round-robin
	// over them until that log has under 18 sectors of room, then 8 more
	// into zone 0 until a roll-over starts, capturing at every
	// raizn.mdgc.* crossing; mount each capture's all and flushed variant
	// without the device of zone 0's open stripe's first unit. A write's
	// data can reach media before its image does. Its row is the first
	// mount that reads back wrong, or else the last.
	{"2b", []string{"EngineLogged"}, func(t *testing.T, c *vclock.Clock, env fuaEnv, _ []*zns.Device, _ *Volume) lossOutcome {
		r := newMDGCRig(t, c, env.dev, env.cfg)
		v := r.v
		for i := 0; mdZoneRoom(r.devs[r.pdev], v.md[r.pdev].active[mdParity]) >= 18; i++ {
			r.write(i%3, 8)
		}
		acked := int(r.acked[0])
		var mu sync.Mutex
		var cuts []*crashCapture
		v.AttachHook(func(p obs.HookPoint) {
			mu.Lock()
			defer mu.Unlock()
			if strings.HasPrefix(p.Name, "raizn.mdgc.") {
				cuts = append(cuts, captureCrash(r.devs, len(cuts)))
			}
		})
		for v.Stats().MetadataGCs == 0 {
			r.write(0, 8)
		}
		if err := v.Unmount(); err != nil { // lets the reclaims finish
			t.Fatal(err)
		}
		omit := v.lt.dataDev(0, 5, 0)
		var o lossOutcome
		for _, cc := range cuts {
			for _, variant := range cc.variants() {
				variant.clk.Run(func() { o = mountLoss(variant.clk, env, variant.devs, omit, acked) })
				if !o.match {
					return o
				}
			}
		}
		return o
	}},
	// 2(d): the metadata-GC rig's zone 0 holds an open stripe whose first
	// 8 sectors were FUA-appended, their image logged on the parity
	// device. A non-FUA write completes the stripe, and the partial-parity
	// log rolls over. Power is cut keeping every data device's submitted
	// sectors and only the parity device's flushed prefix; mount without
	// the device of the stripe's first unit. The checkpoint skips the
	// completed stripe, so its acked units keep their parity only because
	// the completing write went to the devices with FUA (planWriteLocked):
	// without it they had neither parity nor image.
	{"2d", []string{"EngineLogged"}, func(t *testing.T, c *vclock.Clock, env fuaEnv, _ []*zns.Device, _ *Volume) lossOutcome {
		r := newMDGCRig(t, c, env.dev, env.cfg)
		v := r.v
		acked, ss := r.acked[0], v.lt.stripeSectors()
		stripe := acked / ss
		mustWriteV(t, v, acked, int(ss-acked%ss), 0)
		r.acked[0] += ss - acked%ss
		r.roll(mdParity)
		for _, m := range v.md {
			if err := m.quiesce(); err != nil { // lets the reclaim reset the old log
				t.Fatal(err)
			}
		}
		all := map[int]int64{}
		for z := 0; z < r.devs[0].Config().NumZones; z++ {
			all[z] = 1 << 62 // clamped to the zone's submitted wp
		}
		for i, d := range r.devs {
			if i == r.pdev {
				d.PowerLossAt(nil)
			} else {
				d.PowerLossAt(all)
			}
		}
		return mountLoss(c, env, r.devs, v.lt.dataDev(0, stripe, 0), int(acked))
	}},
	// 13: a flushed stripe; one sector of unit 2 rots; unit 0's device
	// fails; a degraded read of [0,16) rebuilds unit 0 from the rot.
	{"13", []string{"EngineLogged", "EngineZRAID"}, func(t *testing.T, c *vclock.Clock, env fuaEnv, devs []*zns.Device, v *Volume) lossOutcome {
		mustWriteV(t, v, 0, 64, 0)
		if err := v.Flush(); err != nil {
			t.Fatal(err)
		}
		dev, pba := unitSectorPBA(v, 0, 0, 2, 5)
		if err := devs[dev].CorruptSector(pba); err != nil {
			t.Fatal(err)
		}
		if err := v.FailDevice(v.lt.dataDev(0, 0, 0)); err != nil {
			t.Fatal(err)
		}
		return readLoss(v, 16)
	}},
}

// moDegradedLosses mounts every crash image of TestMountOutcomesGolden on
// env, whole and without each device, and renders as one row how many
// zones of the degraded mounts read back wrong bytes with a nil error.
// Every mount must read every zone back right: the count is 0, and a
// wrong zone also fails the test by name.
func moDegradedLosses(t *testing.T, env fuaEnv) string {
	n := 0
	for _, cc := range mountOutcomeCaptures(t, env) {
		for _, variant := range cc.variants {
			for missing := -1; missing < len(variant.devs); missing++ {
				_, wrong := mountOutcome(t, env, variant.devs, missing)
				if wrong > 0 {
					t.Errorf("%s k=%d %s missing dev %d: %d zones read back wrong", env.name, cc.k, variant.name, missing, wrong)
				}
				n += wrong
			}
		}
	}
	return fmt.Sprintf("mo-degraded %s zones=%d", strings.ToLower(strings.TrimPrefix(env.name, "Engine")), n)
}

// TestKnownLosses runs every repro of knownLosses on each engine it
// applies to and compares one row per run with knownLossesGolden, then
// adds the mo-degraded row of each engine (moDegradedLosses).
func TestKnownLosses(t *testing.T) {
	envs := map[string]fuaEnv{}
	for _, env := range fuaEnvs() {
		envs[env.name] = env
	}
	var got []string
	for _, l := range knownLosses {
		for _, name := range l.engines {
			env := envs[name]
			c := vclock.New()
			var o lossOutcome
			c.Run(func() {
				devs, v, err := env.create(c)
				if err != nil {
					t.Fatalf("%s %s: Create: %v", l.item, name, err)
				}
				o = l.run(t, c, env, devs, v)
			})
			got = append(got, fmt.Sprintf("%s %s %s", l.item, strings.ToLower(strings.TrimPrefix(name, "Engine")), o))
		}
	}
	for _, env := range fuaEnvs() {
		got = append(got, moDegradedLosses(t, env))
	}
	want := readGolden(t, knownLossesGolden)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("loss rows differ from %s (a row may only move toward match=true, in the change that fixes it):\n got:\n  %s\n want:\n  %s",
			knownLossesGolden, strings.Join(got, "\n  "), strings.Join(want, "\n  "))
		if f, err := os.CreateTemp("", "known_losses-*.golden"); err == nil {
			fmt.Fprintln(f, strings.Join(got, "\n"))
			f.Close()
			t.Logf("rows of this run: %s", f.Name())
		}
	}
}
