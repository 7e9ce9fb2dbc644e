package raizn

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"raizn/internal/obs"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// mountOutcomesGolden pins what Mount makes of a fixed set of crash images
// under the recovery rules it was recorded with. It is an equivalence
// check for changes that must not alter a rule, not a correctness oracle:
// a change that alters a rule on purpose re-records the rows it changes
// and names them.
const mountOutcomesGolden = "testdata/mount_outcomes.golden"

// mountOutcomeStride is the distance, in device-command crossings of the
// workload, between two crash captures.
const mountOutcomeStride = 31

// TestMountOutcomesGolden runs runSeqDiffWorkload on both parity engines,
// captures a crash every mountOutcomeStride device commands (all submitted
// sectors kept, only flushed ones kept, and a seeded cut per device and
// zone), mounts each capture whole and once without each device, and
// compares one row per mount with the golden file. After each mount the
// metadata zones must be consolidated (mdRoles), and no degraded mount may
// recover a zone past the whole mount of the same image.
func TestMountOutcomesGolden(t *testing.T) {
	var got []string
	for _, env := range fuaEnvs() {
		for _, cc := range mountOutcomeCaptures(t, env) {
			for _, variant := range cc.variants {
				image := fmt.Sprintf("%s k=%d %s", env.name, cc.k, variant.name)
				var whole map[int]int64
				for missing := -1; missing < len(variant.devs); missing++ {
					row, _ := mountOutcome(t, env, variant.devs, missing)
					got = append(got, image+" "+row)
					wps := rowWPs(row)
					if missing < 0 {
						whole = wps
						continue
					}
					for z, wp := range wps {
						if wp > whole[z] {
							t.Errorf("%s -dev%d zone %d: the degraded mount recovers WP %d, past the whole mount's %d",
								image, missing, z, wp, whole[z])
						}
					}
				}
			}
		}
	}
	if t.Failed() {
		return
	}
	want := readGolden(t, mountOutcomesGolden)
	if len(want) != len(got) {
		t.Errorf("%s has %d rows, the run produced %d", mountOutcomesGolden, len(want), len(got))
	}
	bad := 0
	for i := range min(len(want), len(got)) {
		if got[i] != want[i] {
			if bad++; bad <= 10 {
				t.Errorf("row %d differs from %s:\n got  %s\n want %s", i, mountOutcomesGolden, got[i], want[i])
			}
		}
	}
	if bad > 10 {
		t.Errorf("%d rows differ in all", bad)
	}
	if t.Failed() {
		f, err := os.CreateTemp("", "mount_outcomes-*.golden")
		if err == nil {
			fmt.Fprintln(f, strings.Join(got, "\n"))
			f.Close()
			t.Logf("rows of this run: %s", f.Name())
		}
	}
}

// rowWPs returns the write pointer of each zone in a mountOutcome row.
func rowWPs(row string) map[int]int64 {
	wps := map[int]int64{}
	for _, f := range strings.Fields(row) {
		var z, state int
		var wp int64
		if n, _ := fmt.Sscanf(f, "z%d=%d/%d/", &z, &state, &wp); n == 3 {
			wps[z] = wp
		}
	}
	return wps
}

// outcomeCapture is one crash point's three clone sets.
type outcomeCapture struct {
	k        int
	variants []crashVariant
}

// mountOutcomeCaptures runs the workload on a fresh array of env and
// returns its crash captures, in crossing order.
func mountOutcomeCaptures(t *testing.T, env fuaEnv) []outcomeCapture {
	t.Helper()
	var caps []outcomeCapture
	c := vclock.New()
	c.Run(func() {
		devs, v, err := env.create(c)
		if err != nil {
			t.Fatalf("%s: Create: %v", env.name, err)
		}
		n := 0
		hook := func(obs.HookPoint) {
			if n++; n%mountOutcomeStride != 0 {
				return
			}
			k := len(caps)
			cc := captureCrash(devs, k)
			seeded := crashVariant{name: "seeded", clk: vclock.New()}
			for i, d := range devs {
				rng := rand.New(rand.NewSource(int64(k*len(devs) + i + 1)))
				seeded.devs = append(seeded.devs, d.CrashClone(seeded.clk, rng, nil))
			}
			caps = append(caps, outcomeCapture{k: k, variants: append(cc.variants(), seeded)})
		}
		for i, d := range devs {
			d.AttachHook(hook, i)
		}
		runSeqDiffWorkload(t, v)
		for i, d := range devs {
			d.AttachHook(nil, i)
		}
	})
	return caps
}

// mountOutcome mounts a fresh copy of devs without device missing (-1:
// whole) and renders the result as one row: per zone its descriptor,
// generation and the SHA-256 prefix of its read-back (or the read error);
// the relocation count; per device the lifetime counters of the mount's
// own commands; and the mount's simulated duration. It then checks the
// consolidated-state invariant of the metadata zones (mdRoles). It also
// returns how many zones read back without error but not as
// runSeqDiffWorkload wrote them (lbaPattern).
func mountOutcome(t *testing.T, env fuaEnv, devs []*zns.Device, missing int) (string, int) {
	clk, copies := copyDevs(devs)
	var avail []*zns.Device
	for i, d := range copies {
		if i != missing {
			avail = append(avail, d)
		}
	}
	var b strings.Builder
	wrong := 0
	if missing < 0 {
		b.WriteString("whole")
	} else {
		fmt.Fprintf(&b, "-dev%d", missing)
	}
	clk.Run(func() {
		v, err := Mount(clk, avail, env.cfg)
		if err != nil {
			fmt.Fprintf(&b, " err=%q", err.Error())
			return
		}
		// The mount's own commands and duration, before the read-back
		// adds to them.
		var dev strings.Builder
		for i, d := range copies {
			if i > 0 {
				dev.WriteByte(';')
			}
			if i == missing {
				dev.WriteByte('-')
				continue
			}
			w, r, f, rs := d.Counters()
			fmt.Fprintf(&dev, "%d,%d,%d,%d,%d", w, r, f, rs, d.WriteCommands())
		}
		now := clk.Now()
		zs := v.ZoneSectors()
		for z := 0; z < v.NumZones(); z++ {
			zd := v.Zone(z)
			start := int64(z) * zs
			fmt.Fprintf(&b, " z%d=%d/%d/%d/%t/g%d/", z, int(zd.State), zd.WP-start, zd.PersistedWP-start, zd.Remapped, v.Generation(z))
			buf := make([]byte, (zd.WP-start)*int64(v.SectorSize()))
			if len(buf) == 0 {
				b.WriteString("empty")
			} else if err := v.Read(start, buf); err != nil {
				fmt.Fprintf(&b, "%q", err.Error())
			} else {
				sum := sha256.Sum256(buf)
				b.WriteString(hex.EncodeToString(sum[:8]))
				if !bytes.Equal(buf, lbaPattern(v, start, len(buf)/v.SectorSize())) {
					wrong++
				}
			}
		}
		fmt.Fprintf(&b, " relocs=%d dev=%s now=%d", v.RelocationCount(), dev.String(), now)
		mdRoles(t, v)
	})
	return b.String(), wrong
}
