package raizn

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"raizn/internal/obs"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// Metadata-zone roll-over tests: the roll-over is a zero-time critical
// section, its waiting half (checkpoint durable → reset old zone → back
// into the swap pool) runs in the background, and mount recovers from a
// crash anywhere inside that window.

// mdgcRig is a volume prepared so that one device's log of either kind
// can be rolled over by foreground traffic: zones 0..2 sit at the stripes
// whose parity all maps to one device (pdev), each with a partial stripe
// open, so every small append logs a partial-parity record there; large
// general records appended to the same device roll its general log.
type mdgcRig struct {
	t    *testing.T
	v    *Volume
	devs []*zns.Device
	pdev int

	mu    sync.Mutex
	acked [3]int64 // zone-relative sectors acknowledged with FUA
}

func newMDGCRig(t *testing.T, c *vclock.Clock, devCfg zns.Config, cfg Config) *mdgcRig {
	t.Helper()
	devs := make([]*zns.Device, 5)
	for i := range devs {
		devs[i] = zns.NewDevice(c, devCfg)
	}
	v, err := Create(c, devs, cfg)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	r := &mdgcRig{t: t, v: v, devs: devs, pdev: v.lt.parityDev(0, 5)}
	for z, stripes := range []int64{5, 4, 3} {
		if v.lt.parityDev(z, stripes) != r.pdev {
			t.Fatalf("zone %d stripe %d does not map parity to device %d", z, stripes, r.pdev)
		}
		r.write(z, int(stripes*v.lt.stripeSectors()))
		r.write(z, 8)
	}
	return r
}

// write FUA-appends n sectors to zone z and records the acknowledgement.
func (r *mdgcRig) write(z, n int) {
	r.t.Helper()
	r.mu.Lock()
	off := r.acked[z]
	r.mu.Unlock()
	mustWriteV(r.t, r.v, int64(z)*r.v.ZoneSectors()+off, n, zns.FUA)
	r.mu.Lock()
	r.acked[z] = off + int64(n)
	r.mu.Unlock()
}

// roll drives foreground traffic until pdev's log of the given kind has
// rolled over once more.
func (r *mdgcRig) roll(kind mdKind) {
	r.t.Helper()
	before := r.v.Stats().MetadataGCs
	for i := 0; r.v.Stats().MetadataGCs == before; i++ {
		if i > 64 {
			r.t.Fatalf("no roll-over of kind %d after %d appends", kind, i)
		}
		if kind == mdGeneral {
			fut, _, err := r.v.md[r.pdev].append(bigRecord(r.v, 30), zns.FUA)
			if err == nil {
				err = fut.Wait()
			}
			if err != nil {
				r.t.Fatalf("general append: %v", err)
			}
			continue
		}
		z := i % 3
		if r.v.lt.parityDev(z, r.acked[z]/r.v.lt.stripeSectors()) != r.pdev {
			continue // its image would not go to pdev's log
		}
		if r.acked[z]%r.v.lt.stripeSectors() == r.v.lt.stripeSectors()-8 {
			r.t.Fatalf("stripe of zone %d would complete before the log rolled", z)
		}
		r.write(z, 8)
	}
}

// verifyAcked checks that everything acknowledged before the crash reads back.
func verifyAcked(t *testing.T, v *Volume, acked [3]int64) {
	t.Helper()
	for z, n := range acked {
		start := int64(z) * v.ZoneSectors()
		if wp := v.Zone(z).WP - start; wp < n {
			t.Fatalf("zone %d: recovered WP %d below acknowledged %d", z, wp, n)
		}
		checkReadV(t, v, start, int(n))
	}
}

// mdZoneInfo is what classifyMDZones says of one metadata zone.
type mdZoneInfo struct {
	phys       int
	empty      bool
	hasGeneral bool
	hasParity  bool
}

// classifyMDZones says, from the device's zone report and the records a
// read of its metadata zones found, which zones are empty and which kinds
// of record each holds. It issues no command.
func classifyMDZones(d *zns.Device, lt *layout, recs []record) []mdZoneInfo {
	infos := make([]mdZoneInfo, lt.mdZones)
	for i := range infos {
		z := lt.mdZoneIndex(i)
		zd := d.Zone(z)
		infos[i] = mdZoneInfo{
			phys:  z,
			empty: zd.WP == d.ZoneStart(z) && zd.State != zns.ZoneFull,
		}
	}
	for i := range recs {
		if zi := int(recs[i].pba/lt.physZoneSize) - lt.numZones; zi >= 0 && zi < len(infos) {
			parity := kindOf(recs[i].typ) == mdParity
			infos[zi].hasParity = infos[zi].hasParity || parity
			infos[zi].hasGeneral = infos[zi].hasGeneral || !parity
		}
	}
	return infos
}

// mdRoles returns each live device's role assignment after checking the
// consolidated-state invariant: the general zone holds only general
// records, the parity zone no general ones, every other zone is an empty
// swap zone, and no reclaim is in flight.
func mdRoles(t *testing.T, v *Volume) [][mdKinds]int {
	t.Helper()
	out := make([][mdKinds]int, len(v.devs))
	for i, d := range v.devs {
		m := v.md[i]
		if d == nil || m == nil {
			continue
		}
		recs, err := scanMDZones(d, v.lt, v.sectorSize)
		if err != nil {
			t.Fatalf("scan dev %d: %v", i, err)
		}
		infos := classifyMDZones(d, v.lt, recs)
		m.mu.Lock()
		if m.reclaiming || len(m.swap) != v.lt.mdZones-2 {
			t.Errorf("dev %d: reclaiming=%v swap=%v, want idle with %d swap zones", i, m.reclaiming, m.swap, v.lt.mdZones-2)
		}
		out[i] = m.active
		m.mu.Unlock()
		for _, inf := range infos {
			switch inf.phys {
			case out[i][mdGeneral]:
				if !inf.hasGeneral || inf.hasParity {
					t.Errorf("dev %d general zone %d: %+v", i, inf.phys, inf)
				}
			case out[i][mdParity]:
				if inf.hasGeneral {
					t.Errorf("dev %d parity zone %d: %+v", i, inf.phys, inf)
				}
			default:
				if !inf.empty {
					t.Errorf("dev %d swap zone %d not empty: %+v", i, inf.phys, inf)
				}
			}
		}
	}
	return out
}

// copyDevs clones powered-off devices onto a fresh clock (after a power
// cycle everything on a device is persistent, so the copy is exact).
func copyDevs(devs []*zns.Device) (*vclock.Clock, []*zns.Device) {
	clk := vclock.New()
	out := make([]*zns.Device, len(devs))
	for i, d := range devs {
		out[i] = d.CrashClone(clk, nil, nil)
	}
	return clk, out
}

// mountChecked mounts the devices, checks acknowledged data and the role
// invariant, and returns the roles.
func mountChecked(t *testing.T, clk *vclock.Clock, devs []*zns.Device, acked [3]int64) (roles [][mdKinds]int) {
	t.Helper()
	clk.Run(func() {
		v, err := Mount(clk, devs, DefaultConfig())
		if err != nil {
			t.Fatalf("Mount: %v", err)
		}
		for i, d := range devs {
			d.AttachHook(nil, i) // command census covers Mount only
		}
		verifyAcked(t, v, acked)
		roles = mdRoles(t, v)
		if err := v.Unmount(); err != nil {
			t.Fatalf("Unmount: %v", err)
		}
	})
	return roles
}

// TestCrashInMetadataRollOverWindow crashes at every raizn.mdgc.* point of
// a roll-over of either kind with a foreground record already behind the
// checkpoint in the new zone (for .begin, which precedes any such record,
// the crash is taken when the triggering append lands at the same
// instant). Mount must recover, acknowledged FUA data must read back, a
// second power loss at every device command of that mount's consolidation
// must converge too, and a further clean re-mount must leave consolidated
// roles again.
func TestCrashInMetadataRollOverWindow(t *testing.T) {
	for _, kind := range []mdKind{mdGeneral, mdParity} {
		for _, point := range []string{"raizn.mdgc.begin", "raizn.mdgc.ckpt", "raizn.mdgc.reset", "raizn.mdgc.done"} {
			t.Run(fmt.Sprintf("kind%d/%s", kind, point), func(t *testing.T) {
				crashInWindow(t, kind, point)
			})
		}
	}
}

func crashInWindow(t *testing.T, kind mdKind, point string) {
	var cc *crashCapture
	var acked [3]int64
	var rolled int
	var live *Volume
	c := vclock.New()
	c.Run(func() {
		r := newMDGCRig(t, c, testDevConfig(), DefaultConfig())
		live = r.v
		var hmu sync.Mutex
		armed := false
		r.v.AttachHook(func(p obs.HookPoint) {
			hmu.Lock()
			defer hmu.Unlock()
			if cc != nil {
				return
			}
			fg := p.Name == "raizn.pp.write" || p.Name == "raizn.md.append"
			switch {
			case p.Name == point && point != "raizn.mdgc.begin", armed && fg:
				r.mu.Lock()
				acked = r.acked
				r.mu.Unlock()
				cc = captureCrash(r.devs, 0)
			case p.Name == point:
				armed = true
			}
		})
		rolled = r.pdev
		r.roll(kind)
		if err := r.v.Unmount(); err != nil { // lets the reclaim finish
			t.Fatalf("Unmount: %v", err)
		}
	})
	if cc == nil {
		t.Fatalf("%s never fired", point)
	}

	for _, variant := range cc.variants() {
		// With everything submitted surviving, a crash before the old
		// zone's reset leaves all three metadata zones non-empty, with
		// foreground records behind the new zone's checkpoint.
		if variant.name == "all" && (point == "raizn.mdgc.begin" || point == "raizn.mdgc.ckpt") {
			variant.clk.Run(func() {
				d := variant.devs[rolled]
				recs, err := scanMDZones(d, live.lt, live.sectorSize)
				if err != nil {
					t.Fatal(err)
				}
				infos := classifyMDZones(d, live.lt, recs)
				for _, inf := range infos {
					if inf.empty {
						t.Errorf("%s: expected no empty metadata zone, got %+v", variant.name, infos)
					}
				}
			})
		}

		// First mount, counting the rolled device's commands.
		clk, devs := copyDevs(variant.devs)
		cmds := 0
		devs[rolled].AttachHook(func(obs.HookPoint) { cmds++ }, rolled)
		mountChecked(t, clk, devs, acked)
		clk, remounted := copyDevs(devs)
		first := mountChecked(t, clk, remounted, acked)
		clk, remounted = copyDevs(devs)
		if again := mountChecked(t, clk, remounted, acked); fmt.Sprint(again) != fmt.Sprint(first) {
			t.Errorf("%s: re-mount roles differ between identical copies: %v vs %v", variant.name, first, again)
		}

		// Second power loss at every command the first mount issued to
		// the rolled device.
		for k := 0; k < cmds; k++ {
			clk, devs := copyDevs(variant.devs)
			var cc2 *crashCapture
			n := 0
			devs[rolled].AttachHook(func(obs.HookPoint) {
				if n == k {
					cc2 = captureCrash(devs, k)
				}
				n++
			}, rolled)
			clk.Run(func() {
				if _, err := Mount(clk, devs, DefaultConfig()); err != nil {
					t.Fatalf("%s: mount before second crash %d: %v", variant.name, k, err)
				}
			})
			if cc2 == nil {
				t.Fatalf("%s: mount command %d never reached", variant.name, k)
			}
			mountChecked(t, cc2.allClk, cc2.allDevs, acked)
			mountChecked(t, cc2.flClk, cc2.flDevs, acked)
		}
	}
}

// submitTimed issues one write and fails the test if the submit phase —
// everything up to SubmitWrite returning its future — took simulated time.
func submitTimed(t *testing.T, c *vclock.Clock, v *Volume, lba int64, n int, flags zns.Flag) {
	t.Helper()
	t0 := c.Now()
	fut := v.SubmitWrite(lba, lbaPattern(v, lba, n), flags)
	if d := c.Now() - t0; d != 0 {
		t.Errorf("SubmitWrite(%d) submit phase took %v of simulated time (roll-overs so far: %d)",
			lba, d, v.Stats().MetadataGCs)
	}
	if err := fut.Wait(); err != nil {
		t.Fatalf("write %d: %v", lba, err)
	}
}

// TestRollOverAddsNoSimulatedTime: a write whose metadata append triggers
// a roll-over returns from its submit phase at the virtual instant it
// entered it — for the partial-parity log and for the general log
// (checksum records: a FUA write appends one per stripe it completes).
func TestRollOverAddsNoSimulatedTime(t *testing.T) {
	t.Run("parity", func(t *testing.T) {
		c := vclock.New()
		c.Run(func() {
			r := newMDGCRig(t, c, testDevConfig(), DefaultConfig())
			for round := 0; round < 6; round++ {
				for z := 0; z < 3; z++ {
					submitTimed(t, c, r.v, int64(z)*r.v.ZoneSectors()+r.acked[z], 8, 0)
					r.acked[z] += 8
				}
			}
			if r.v.Stats().MetadataGCs == 0 {
				t.Error("the parity log never rolled over")
			}
			if w := r.v.Stats().MetadataGCWaits; w != 0 {
				t.Errorf("%d appends waited for a swap zone", w)
			}
		})
	})

	t.Run("general", func(t *testing.T) {
		runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
			// Zone 0's checksum records go to device 0's general log:
			// fill it to within a few sectors with records mount ignores.
			if v.checksumDev(0) != 0 {
				t.Fatal("zone 0 checksums expected on device 0")
			}
			for i := 0; i < 4; i++ {
				fut, _, err := v.md[0].append(bigRecord(v, 30), zns.FUA)
				if err == nil {
					err = fut.Wait()
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			stripe := int(v.lt.stripeSectors())
			for s := 0; s < 8; s++ {
				submitTimed(t, c, v, int64(s*stripe), stripe, zns.FUA)
			}
			if v.Stats().MetadataGCs == 0 {
				t.Error("the general log never rolled over")
			}
		})
	})
}

// anyIdle is rollRound's pick for a roll-over that is not waited for.
func anyIdle(*mdManager, *zns.Device) bool { return true }

// bigRecord is a general-log record of n sectors in total that mount
// ignores: a relocation past the array's last sector.
func bigRecord(v *Volume, n int) *record {
	end := v.lt.numSectors() + int64(n-1)
	return &record{typ: recRelocData, startLBA: v.lt.numSectors(), endLBA: end,
		gen: v.nextMDSeq(), payload: make([]byte, (n-1)*v.sectorSize)}
}

// TestSwapPoolBackPressure: a second roll-over on a device while the
// first one's old zone is still being reclaimed parks until that reclaim
// lands, then proceeds; it is counted, and the pool is whole afterwards.
func TestSwapPoolBackPressure(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		m := v.md[0]
		if _, _, err := m.append(bigRecord(v, 100), 0); err != nil {
			t.Fatal(err)
		}
		if _, err := v.rollRound([]*mdManager{m}, mdParity, true, anyIdle); err != nil {
			t.Fatal(err)
		}
		t0 := c.Now()
		// 100 more sectors do not fit the general zone: this append needs
		// the swap zone the parity roll-over just took.
		fut, _, err := m.append(bigRecord(v, 100), 0)
		if err != nil {
			t.Fatalf("append behind a reclaim: %v", err)
		}
		if waited := c.Now() - t0; waited < devs[0].Config().ResetLatency {
			t.Errorf("second roll-over waited %v, want at least the reset latency %v", waited, devs[0].Config().ResetLatency)
		}
		if w := v.Stats().MetadataGCWaits; w != 1 {
			t.Errorf("MetadataGCWaits = %d, want 1", w)
		}
		if err := fut.Wait(); err != nil {
			t.Fatal(err)
		}
		if gcs := v.Stats().MetadataGCs; gcs != 2 {
			t.Errorf("MetadataGCs = %d, want 2", gcs)
		}
		if err := m.quiesce(); err != nil {
			t.Fatal(err)
		}
		mdRoles(t, v)
	})
}

// TestReclaimFailureWakesWaiters: an append parked behind a reclaim is
// woken with the error when the device fails or loses power mid-reclaim,
// instead of leaving the simulation deadlocked.
func TestReclaimFailureWakesWaiters(t *testing.T) {
	for _, tc := range []struct {
		name   string
		want   error
		break_ func(v *Volume, d *zns.Device)
	}{
		{"power-loss", zns.ErrPowerLoss, func(v *Volume, d *zns.Device) { d.PowerLoss(nil) }},
		{"fail-device", zns.ErrDeviceFailed, func(v *Volume, d *zns.Device) { d.Fail() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
				m := v.md[0]
				// FUA: the record must survive the power loss, or the
				// parked append would fit afterwards.
				fut, _, err := m.append(bigRecord(v, 100), zns.FUA)
				if err == nil {
					err = fut.Wait()
				}
				if err != nil {
					t.Fatal(err)
				}
				if _, err := v.rollRound([]*mdManager{m}, mdParity, true, anyIdle); err != nil {
					t.Fatal(err)
				}
				wg := c.NewWaitGroup()
				wg.Add(1)
				var got error
				c.Go(func() {
					defer wg.Done()
					_, _, got = m.append(bigRecord(v, 100), 0)
				})
				c.Sleep(10 * time.Microsecond) // the append is parked by now
				tc.break_(v, devs[0])
				wg.Wait()
				if !errors.Is(got, tc.want) {
					t.Errorf("parked append returned %v, want %v", got, tc.want)
				}
				if err := m.quiesce(); !errors.Is(err, tc.want) {
					t.Errorf("quiesce after failed reclaim = %v, want %v", err, tc.want)
				}
			})
		})
	}
}

// TestMaintainAndUnmountQuiesce: both return with every device's swap
// pool whole — no reclaim callback outlives them.
func TestMaintainAndUnmountQuiesce(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		r := newMDGCRig(t, c, testDevConfig(), DefaultConfig())
		r.roll(mdParity)
		if err := r.v.Maintain(); err != nil {
			t.Fatalf("Maintain: %v", err)
		}
		mdRoles(t, r.v)
		if gcs := r.v.Stats().MetadataGCs; gcs != 1+2*5 {
			t.Errorf("MetadataGCs = %d, want one foreground roll-over plus two per device", gcs)
		}

		m := r.v.md[r.pdev]
		_, err := r.v.rollRound([]*mdManager{m}, mdGeneral, true, anyIdle)
		m.mu.Lock()
		inFlight := m.reclaiming
		m.mu.Unlock()
		if err != nil || !inFlight {
			t.Fatalf("roll-over: err=%v reclaim in flight=%v", err, inFlight)
		}
		if err := r.v.Unmount(); err != nil {
			t.Fatalf("Unmount: %v", err)
		}
		for i, m := range r.v.md {
			if m.reclaiming || len(m.swap) != r.v.lt.mdZones-2 {
				t.Errorf("dev %d after Unmount: reclaiming=%v swap=%v", i, m.reclaiming, m.swap)
			}
		}
		remount(t, c, r.devs)
	})
}

// TestJournalShowsMetadataGC: with no span blocked on a roll-over any
// more, the journal's begin/done pair is what puts it on a timeline.
func TestJournalShowsMetadataGC(t *testing.T) {
	runVolJournal(t, func(c *vclock.Clock, v *Volume, j *obs.Journal) {
		old := v.md[2].active[mdParity]
		if _, err := v.rollRound([]*mdManager{v.md[2]}, mdParity, true, nil); err != nil {
			t.Fatal(err)
		}
		var evs []obs.Event
		for _, e := range j.Events() {
			if e.Type == obs.EvMetadataGC {
				evs = append(evs, e)
			}
		}
		if len(evs) != 2 {
			t.Fatalf("metadata-gc events = %+v, want a begin/done pair", evs)
		}
		begin, done := evs[0], evs[1]
		if begin.A != 1 || begin.Src != 2 || int(begin.Zone) != old ||
			int(begin.B) != v.md[2].active[mdParity] || begin.C != int64(mdParity) {
			t.Errorf("begin event = %+v", begin)
		}
		if done.A != 0 || done.D != 0 || done.Zone != begin.Zone {
			t.Errorf("done event = %+v", done)
		}
		if wait := done.T - begin.T; wait < v.devs[2].Config().ResetLatency {
			t.Errorf("reclaim took %v, want at least the reset latency", wait)
		}
	})
}

// deviceFlushes sums the devices' flush commands.
func deviceFlushes(devs []*zns.Device) int64 {
	var n int64
	for _, d := range devs {
		_, _, f, _ := d.Counters()
		n += f
	}
	return n
}

// ckptRecords counts the checkpoint records at the head of physical zone z.
func ckptRecords(t *testing.T, v *Volume, d *zns.Device, z int) int {
	t.Helper()
	var n int
	d.Clock().Run(func() {
		recs, err := scanMDZones(d, v.lt, v.sectorSize)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if int(r.pba/v.lt.physZoneSize) != z {
				continue
			}
			if r.typ&recCheckpoint == 0 {
				break
			}
			n++
		}
	})
	return n
}

// TestRollOverIsFlushFree: an all-FUA stream rolls the partial-parity logs
// over at least ten times and no device sees a flush command — the
// checkpoint is durable by the FUA on its last record. At every
// raizn.mdgc.ckpt, the instant before the old zone's reset, the whole
// checkpoint is already on media (a power cut keeping only persisted
// prefixes keeps every checkpoint record that was submitted). Everything
// acknowledged survives such a cut at the end.
func TestRollOverIsFlushFree(t *testing.T) {
	type ckptCut struct {
		dev, zone int
		all, fl   *zns.Device
	}
	var cuts []ckptCut
	var live *Volume
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		live = v
		flushes0 := deviceFlushes(devs)
		next := make(map[int]int)
		var hmu sync.Mutex
		v.AttachHook(func(p obs.HookPoint) {
			hmu.Lock()
			defer hmu.Unlock()
			switch p.Name {
			case "raizn.mdgc.begin":
				next[p.Src] = int(p.Arg)
			case "raizn.mdgc.ckpt":
				cc := captureCrash(devs[p.Src:p.Src+1], 0)
				cuts = append(cuts, ckptCut{p.Src, next[p.Src], cc.allDevs[0], cc.flDevs[0]})
			}
		})
		zs := v.ZoneSectors()
		var acked [3]int64
		for z := 0; v.Stats().MetadataGCs < 10; z = (z + 1) % 3 {
			if acked[z]+4 > zs {
				t.Fatalf("zones full after %d roll-overs", v.Stats().MetadataGCs)
			}
			mustWriteV(t, v, int64(z)*zs+acked[z], 4, zns.FUA)
			acked[z] += 4
		}
		v.AttachHook(nil)
		if n := deviceFlushes(devs) - flushes0; n != 0 {
			t.Errorf("%d device flushes across %d roll-overs of an all-FUA stream, want 0", n, v.Stats().MetadataGCs)
		}
		if st := v.Stats(); st.FUAFlushes+st.FUAFlushesJoined != 0 {
			t.Errorf("FUA writes asked for %d flushes", st.FUAFlushes+st.FUAFlushesJoined)
		}
		for _, d := range devs {
			d.PowerLoss(nil)
		}
		verifyAcked(t, remount(t, c, devs), acked)
	})
	if len(cuts) < 10 {
		t.Fatalf("%d checkpoints completed, want at least 10", len(cuts))
	}
	nonEmpty := 0
	for i, cut := range cuts {
		all, fl := ckptRecords(t, live, cut.all, cut.zone), ckptRecords(t, live, cut.fl, cut.zone)
		if fl != all {
			t.Errorf("roll-over %d (device %d, new zone %d): %d of %d checkpoint records on media when the old zone is reset", i, cut.dev, cut.zone, fl, all)
		}
		if all > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		t.Error("every checkpoint was empty")
	}
}

// TestEmptyCheckpointStillReclaims: when nothing of the log is live — every
// stripe it protected has completed — the roll-over writes no checkpoint,
// and still resets the old zone and returns it to the pool.
func TestEmptyCheckpointStillReclaims(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		pdev := v.lt.parityDev(0, 0)
		mustWriteV(t, v, 0, 8, zns.FUA)
		mustWriteV(t, v, 8, 56, zns.FUA) // stripe 0 complete: its log record is dead
		m := v.md[pdev]
		old := m.active[mdParity]
		if devs[pdev].Zone(old).WP == devs[pdev].ZoneStart(old) {
			t.Fatal("the partial write logged nothing on the parity device")
		}
		if _, err := v.rollRound([]*mdManager{m}, mdParity, true, nil); err != nil {
			t.Fatal(err)
		}
		if zd := devs[pdev].Zone(m.active[mdParity]); zd.WP != devs[pdev].ZoneStart(m.active[mdParity]) {
			t.Errorf("new parity zone holds %d sectors, want an empty checkpoint", zd.WP-devs[pdev].ZoneStart(m.active[mdParity]))
		}
		if zd := devs[pdev].Zone(old); zd.WP != devs[pdev].ZoneStart(old) {
			t.Errorf("old zone %d not reset: %+v", old, zd)
		}
		mdRoles(t, v)
		if n := deviceFlushes(devs); n != 0 {
			t.Errorf("%d device flushes, want 0", n)
		}
	})
}

// ppFiller is a partial-parity log record of n sectors that recovery drops
// (its generation is never current): ballast for a parity log.
func ppFiller(v *Volume, n int) *record {
	return &record{typ: recPartialParity, startLBA: 0, endLBA: int64(n - 1), gen: 1 << 40,
		payload: make([]byte, (n-1)*v.sectorSize)}
}

// TestRollOverIsArrayWide: when device 0's partial-parity log rolls over,
// the sibling whose log is at least half full rolls at the same virtual
// instant; the emptier sibling, the failed one and the one whose swap zone
// is still being reclaimed are left alone.
func TestRollOverIsArrayWide(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		fill := func(dev, sectors int) {
			t.Helper()
			for ; sectors > 0; sectors -= 10 {
				if _, _, err := v.md[dev].append(ppFiller(v, min(sectors, 10)), 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		half := int(devs[0].Config().ZoneCap / 2)
		fill(0, 2*half-4) // the next record does not fit
		fill(1, half)     // exactly half full: pulled
		fill(2, half-1)   // just under: left
		fill(4, half+10)  // over half, but mid-reclaim: left
		if err := v.FailDevice(3); err != nil {
			t.Fatal(err)
		}
		if _, err := v.rollRound([]*mdManager{v.md[4]}, mdGeneral, true, anyIdle); err != nil {
			t.Fatal(err)
		}
		before := make([]int, 5)
		for i, m := range v.md {
			if m != nil {
				before[i] = m.active[mdParity]
			}
		}

		t0 := c.Now()
		if _, _, err := v.md[0].append(ppFiller(v, 10), 0); err != nil {
			t.Fatal(err)
		}
		if d := c.Now() - t0; d != 0 {
			t.Errorf("the array-wide roll-over took %v of simulated time", d)
		}
		st := v.Stats()
		if st.MetadataGCs != 3 || st.MDGCsCoordinated != 1 || st.MetadataGCWaits != 0 {
			t.Errorf("roll-overs=%d coordinated=%d waits=%d, want 3 (device 4's general log, devices 0 and 1's parity logs), 1, 0",
				st.MetadataGCs, st.MDGCsCoordinated, st.MetadataGCWaits)
		}
		for i, want := range []bool{true, true, false, false, false} {
			if m := v.md[i]; m != nil && (m.active[mdParity] != before[i]) != want {
				t.Errorf("device %d parity log rolled = %v, want %v", i, !want, want)
			}
		}
		// Both reclaims run side by side: the two resets overlap.
		for _, i := range []int{0, 1, 4} {
			if err := v.md[i].quiesce(); err != nil {
				t.Fatal(err)
			}
		}
		if took, reset := c.Now()-t0, devs[0].Config().ResetLatency; took >= 2*reset {
			t.Errorf("three reclaims took %v, want them to overlap (one reset is %v)", took, reset)
		}
		mdRoles(t, v)
	})
}

// TestCrashBetweenSiblingRolls cuts power at every raizn.mdgc.* crossing of
// an array-wide roll-over of two devices' partial-parity logs — between the
// two siblings' rolls, after a checkpoint is durable but before its old
// zone's reset, after one reset and before the other — and mounts what
// survives, whole and without the device that holds the open stripes'
// first data unit (so the stripes stand on the partial parity, which after
// the resets only the checkpoints carry). Every acknowledged sector must
// read back.
//
// The roll-over is set off by a bare log append, with no write in flight.
// The write-triggered roll-over, where a write's data sub-IOs can reach
// media before its partial-parity record does, is TestKnownLosses' 2b
// repro, mounted without a device of the stripe; it reads back right since
// an image rebuilds a lost unit only where it was taken after that unit was
// written. TestCrashInMetadataRollOverWindow covers it on whole arrays.
func TestCrashBetweenSiblingRolls(t *testing.T) {
	type cut struct {
		name string
		cc   *crashCapture
	}
	var cuts []cut
	var acked [3]int64
	var acked3, zs int64
	var omit int
	c := vclock.New()
	c.Run(func() {
		r := newMDGCRig(t, c, testDevConfig(), DefaultConfig())
		v := r.v
		zs = v.ZoneSectors()
		omit = v.lt.dataDev(0, 5, 0)
		// Zone 3's open stripe logs to another device: half fill its log.
		sibling := v.lt.parityDev(3, 1)
		if sibling == r.pdev {
			t.Fatal("zone 3 stripe 1 maps parity to the rig's device")
		}
		mustWriteV(t, v, 3*zs, int(v.lt.stripeSectors()), zns.FUA)
		for acked3 = v.lt.stripeSectors(); mdZoneRoom(r.devs[sibling], v.md[sibling].active[mdParity]) > r.devs[sibling].Config().ZoneCap/2; acked3 += 7 {
			mustWriteV(t, v, 3*zs+acked3, 7, zns.FUA)
		}
		// Fill the rig device's log to within a record of its end.
		for i := 0; mdZoneRoom(r.devs[r.pdev], v.md[r.pdev].active[mdParity]) >= 9; i++ {
			r.write(i%3, 8)
		}
		if gcs := v.Stats().MetadataGCs; gcs != 0 {
			t.Fatalf("%d roll-overs during set-up", gcs)
		}
		acked = r.acked
		var hmu sync.Mutex
		v.AttachHook(func(p obs.HookPoint) {
			hmu.Lock()
			defer hmu.Unlock()
			if strings.HasPrefix(p.Name, "raizn.mdgc.") {
				cuts = append(cuts, cut{fmt.Sprintf("%s/dev%d", p.Name, p.Src), captureCrash(r.devs, len(cuts))})
			}
		})
		fut, _, err := v.md[r.pdev].append(ppFiller(v, 9), zns.FUA)
		if err == nil {
			err = fut.Wait()
		}
		if err != nil {
			t.Fatalf("append: %v", err)
		}
		if err := v.Unmount(); err != nil { // lets the reclaims finish
			t.Fatalf("Unmount: %v", err)
		}
		if st := v.Stats(); st.MetadataGCs != 2 || st.MDGCsCoordinated != 1 {
			t.Fatalf("roll-overs = %d, coordinated = %d: want device %d pulled along by device %d", st.MetadataGCs, st.MDGCsCoordinated, sibling, r.pdev)
		}
	})
	if len(cuts) != 8 {
		t.Fatalf("crossed %d raizn.mdgc.* points, want 4 on each of two devices", len(cuts))
	}
	if !strings.HasPrefix(cuts[0].name, "raizn.mdgc.begin") || !strings.HasPrefix(cuts[1].name, "raizn.mdgc.begin") {
		t.Errorf("first crossings %s, %s: want both devices' begin before either checkpoint completes", cuts[0].name, cuts[1].name)
	}
	check := func(name string, clk *vclock.Clock, devs []*zns.Device) {
		clk.Run(func() {
			v, err := Mount(clk, devs, DefaultConfig())
			if err != nil {
				t.Fatalf("%s: Mount: %v", name, err)
			}
			verifyAcked(t, v, acked)
			if wp := v.Zone(3).WP - 3*zs; wp < acked3 {
				t.Fatalf("%s: zone 3 recovered WP %d below acknowledged %d", name, wp, acked3)
			}
			checkReadV(t, v, 3*zs, int(acked3))
		})
	}
	for _, cu := range cuts {
		for _, variant := range cu.cc.variants() {
			name := cu.name + "/" + variant.name
			clk, devs := copyDevs(variant.devs)
			check(name+"/healthy", clk, devs)
			clk, devs = copyDevs(variant.devs)
			check(name+"/degraded", clk, append(devs[:omit:omit], devs[omit+1:]...))
		}
	}
}

// cleanBothLogs is a clean image whose every device has written both
// metadata logs: 8 FUA sectors open stripe 0 of each of five zones, whose
// parity rotates over the five devices, so every device logs one
// partial-parity record beside its superblock. It returns the unmounted
// devices and the zones written.
func cleanBothLogs(t *testing.T) ([]*zns.Device, int) {
	t.Helper()
	var devs []*zns.Device
	var zones int
	c := vclock.New()
	c.Run(func() {
		devs = newTestDevices(c, 5)
		v, err := Create(c, devs, DefaultConfig())
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		zones = v.lt.n
		for z := range zones {
			mustWriteV(t, v, int64(z)*v.ZoneSectors(), 8, zns.FUA)
		}
		for i, d := range devs {
			if z := v.md[i].active[mdParity]; d.Zone(z).WP == d.ZoneStart(z) {
				t.Fatalf("device %d logged no partial parity", i)
			}
		}
		if err := v.Unmount(); err != nil {
			t.Fatalf("Unmount: %v", err)
		}
	})
	return devs, zones
}

// mountBothLogs mounts devs, checks that the written zones read back and
// the role invariant holds, and returns the mount's simulated duration.
func mountBothLogs(t *testing.T, clk *vclock.Clock, devs []*zns.Device, zones int) (took time.Duration) {
	t.Helper()
	clk.Run(func() {
		t0 := clk.Now()
		v, err := Mount(clk, devs, DefaultConfig())
		if err != nil {
			t.Fatalf("Mount: %v", err)
		}
		took = clk.Now() - t0
		for z := range zones {
			checkReadV(t, v, int64(z)*v.ZoneSectors(), 8)
		}
		mdRoles(t, v)
	})
	return took
}

// TestMountOverlapsDevices: a mount rolls each metadata log on every
// device at once, so a clean five-device mount whose every device resets
// a zone per log takes two resets of simulated time, not two per device.
// A power cut at every device command of that mount, followed by a second
// mount, must leave every acknowledged sector readable and the roles
// consolidated.
func TestMountOverlapsDevices(t *testing.T) {
	devs, zones := cleanBothLogs(t)
	clk, copies := copyDevs(devs)
	cmds := 0
	for i, d := range copies {
		d.AttachHook(func(obs.HookPoint) { cmds++ }, i)
	}
	took := mountBothLogs(t, clk, copies, zones)
	t.Logf("clean mount: %v of simulated time, %d device commands", took, cmds)
	if limit := 3 * devs[0].Config().ResetLatency; took >= limit {
		t.Errorf("clean mount took %v of simulated time, want under %v (three resets)", took, limit)
	}

	for k := 0; k < cmds; k++ {
		clk, copies := copyDevs(devs)
		var cc *crashCapture
		n := 0
		for i, d := range copies {
			d.AttachHook(func(obs.HookPoint) {
				if n == k {
					cc = captureCrash(copies, k)
				}
				n++
			}, i)
		}
		clk.Run(func() {
			if _, err := Mount(clk, copies, DefaultConfig()); err != nil {
				t.Fatalf("mount before the cut at command %d: %v", k, err)
			}
		})
		if cc == nil {
			t.Fatalf("mount command %d never reached", k)
		}
		for _, variant := range cc.variants() {
			t.Run(fmt.Sprintf("cmd%d/%s", k, variant.name), func(t *testing.T) {
				mountBothLogs(t, variant.clk, variant.devs, zones)
			})
		}
	}
}

// TestCheckpointOrderIsDeterministic: identical runs — open stripes, and
// relocated data and parity in several zones and stripes — leave
// byte-identical metadata zones after Maintain. A checkpoint emits zones
// and stripes in index order, not in the order of the maps holding them.
func TestCheckpointOrderIsDeterministic(t *testing.T) {
	run := func() (img [][]byte) {
		runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
			stripe := v.lt.stripeSectors()
			for z := range v.NumZones() {
				start := int64(z) * v.ZoneSectors()
				mustWriteV(t, v, start, int(3*stripe+8), zns.FUA)
				// Data fragments of every zone on device 0; relocated parity
				// of three zones on device 1, and of three stripes of one
				// zone on device 2.
				for s := range int64(3) {
					lba := start + s*stripe
					v.addReloc(z, relocEntry{startLBA: lba, endLBA: lba + 2, dev: 0, data: lbaPattern(v, lba, 2)}, false, s)
					parity := relocEntry{startLBA: lba, endLBA: lba + v.lt.su, data: make([]byte, v.lt.su*int64(v.sectorSize))}
					switch {
					case z < 3 && s == 0:
						parity.dev = 1
					case z == 3:
						parity.dev = 2
					default:
						continue
					}
					v.addReloc(z, parity, true, s)
				}
			}
			if err := v.Maintain(); err != nil {
				t.Fatalf("Maintain: %v", err)
			}
			for _, d := range devs {
				for i := range v.lt.mdZones {
					z := v.lt.mdZoneIndex(i)
					buf := make([]byte, (d.Zone(z).WP-d.ZoneStart(z))*int64(v.sectorSize))
					if len(buf) > 0 {
						if err := d.Read(d.ZoneStart(z), buf).Wait(); err != nil {
							t.Fatal(err)
						}
					}
					img = append(img, buf)
				}
			}
		})
		return img
	}
	first := run()
	for r := 1; r < 4; r++ {
		for i, zone := range run() {
			if !bytes.Equal(zone, first[i]) {
				t.Fatalf("run %d: metadata zone %d of device %d differs from the first run's", r, i%3, i/3)
			}
		}
	}
}

// maintainAtCeiling mounts devs (cleanBothLogs' image), sets every
// generation counter to the ceiling and persists them, then runs Maintain,
// which zeroes them. With cut >= 0 it captures a crash at Maintain's
// device command number cut. It returns Maintain's simulated duration, its
// device commands, the volume's generation of zone 0 afterwards and the
// capture.
func maintainAtCeiling(t *testing.T, devs []*zns.Device, cut int) (took time.Duration, cmds int, gen uint64, cc *crashCapture) {
	t.Helper()
	clk, copies := copyDevs(devs)
	clk.Run(func() {
		v, err := Mount(clk, copies, DefaultConfig())
		if err != nil {
			t.Fatalf("Mount: %v", err)
		}
		v.mu.Lock()
		for z := range v.gen {
			v.gen[z] = genCounterCeiling
		}
		v.mu.Unlock()
		if err := v.persistGenCounters(); err != nil {
			t.Fatal(err)
		}
		for i, d := range copies {
			d.AttachHook(func(obs.HookPoint) {
				if cmds == cut {
					cc = captureCrash(copies, cut)
				}
				cmds++
			}, i)
		}
		t0 := clk.Now()
		if err := v.Maintain(); err != nil {
			t.Fatalf("Maintain: %v", err)
		}
		took, gen = clk.Now()-t0, v.Generation(0)
		for i, d := range copies {
			d.AttachHook(nil, i)
		}
		mdRoles(t, v)
	})
	return took, cmds, gen, cc
}

// TestMaintainOverlapsDevices: Maintain rolls each metadata log on every
// device at once, so on a clean five-device array whose every device
// resets a zone per log it takes two resets of simulated time, not two per
// device. A power cut at every device command of Maintain, followed by a
// mount, must leave every acknowledged sector readable and the roles
// consolidated; the counters Maintain zeroed read back zeroed from the
// first cut that finds them durable on.
func TestMaintainOverlapsDevices(t *testing.T) {
	devs, zones := cleanBothLogs(t)
	took, cmds, gen, _ := maintainAtCeiling(t, devs, -1)
	t.Logf("clean Maintain: %v of simulated time, %d device commands", took, cmds)
	if limit := 3 * devs[0].Config().ResetLatency; took >= limit {
		t.Errorf("clean Maintain took %v of simulated time, want under %v (three resets)", took, limit)
	}
	if gen != 0 {
		t.Errorf("generation after Maintain = %d, want 0", gen)
	}

	zeroed := map[string]bool{}
	for k := 0; k < cmds; k++ {
		_, _, _, cc := maintainAtCeiling(t, devs, k)
		if cc == nil {
			t.Fatalf("Maintain command %d never reached", k)
		}
		for _, variant := range cc.variants() {
			t.Run(fmt.Sprintf("cmd%d/%s", k, variant.name), func(t *testing.T) {
				variant.clk.Run(func() {
					v, err := Mount(variant.clk, variant.devs, DefaultConfig())
					if err != nil {
						t.Fatalf("Mount: %v", err)
					}
					for z := range zones {
						checkReadV(t, v, int64(z)*v.ZoneSectors(), 8)
					}
					mdRoles(t, v)
					switch g := v.Generation(0); {
					case g == 0:
						zeroed[variant.name] = true
					case g != genCounterCeiling || zeroed[variant.name]:
						t.Errorf("zone 0 generation %d, want 0 or, before the zeroed counters are durable, the ceiling", g)
					}
				})
			})
		}
	}
	for _, name := range []string{"all", "flushed"} {
		if !zeroed[name] {
			t.Errorf("%s: no cut found the zeroed counters durable", name)
		}
	}
}

// TestReplacementMetadataLayout: a replacement device's metadata is one
// roll-over per kind from its empty zones: the general checkpoint alone in
// the first metadata zone, the partial-parity checkpoint alone in the
// second, the third empty in the swap pool, and records in the order
// checkpointRecords emits them.
func TestReplacementMetadataLayout(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		const slot = 1
		var want [mdKinds][]string
		for z := range v.NumZones() {
			mustWriteV(t, v, int64(z)*v.ZoneSectors(), 8, zns.FUA) // an open stripe per zone
			if v.lt.parityDev(z, 0) == slot {
				want[mdParity] = append(want[mdParity], fmt.Sprintf("partial-parity+ckpt [%d,%d)", v.lt.stripeStart(z, 0), v.lt.stripeStart(z, 0)+8))
			}
		}
		want[mdGeneral] = []string{"superblock+ckpt", "gen-counters+ckpt"}
		if err := v.FailDevice(slot); err != nil {
			t.Fatal(err)
		}
		nd := zns.NewDevice(c, testDevConfig())
		if _, err := v.ReplaceDevice(nd); err != nil {
			t.Fatalf("ReplaceDevice: %v", err)
		}
		recs, err := scanMDZones(nd, v.lt, v.sectorSize)
		if err != nil {
			t.Fatal(err)
		}
		got := make([][]string, v.lt.mdZones)
		for _, r := range recs {
			s := r.typ.String()
			if r.typ.base() == recPartialParity {
				s += fmt.Sprintf(" [%d,%d)", r.startLBA, r.endLBA)
			}
			zi := int(r.pba/v.lt.physZoneSize) - v.lt.numZones
			got[zi] = append(got[zi], s)
		}
		for kind, w := range want {
			if fmt.Sprint(got[kind]) != fmt.Sprint(w) {
				t.Errorf("metadata zone %d holds %v, want %v", kind, got[kind], w)
			}
		}
		if len(got[2]) != 0 {
			t.Errorf("metadata zone 2 holds %v, want nothing", got[2])
		}
		if roles := mdRoles(t, v); roles[slot] != [mdKinds]int{v.lt.mdZoneIndex(0), v.lt.mdZoneIndex(1)} {
			t.Errorf("replacement roles %v, want general in metadata zone 0 and parity in zone 1", roles[slot])
		}
	})
}
