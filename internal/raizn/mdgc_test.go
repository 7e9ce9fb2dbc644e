package raizn

import (
	"errors"
	"fmt"
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
		infos, err := v.classifyMDZones(d)
		if err != nil {
			t.Fatalf("classify dev %d: %v", i, err)
		}
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

	for _, variant := range []struct {
		name string
		clk  *vclock.Clock
		devs []*zns.Device
	}{{"all", cc.allClk, cc.allDevs}, {"flushed", cc.flClk, cc.flDevs}} {
		// With everything submitted surviving, a crash before the old
		// zone's reset leaves all three metadata zones non-empty, with
		// foreground records behind the new zone's checkpoint.
		if variant.name == "all" && (point == "raizn.mdgc.begin" || point == "raizn.mdgc.ckpt") {
			variant.clk.Run(func() {
				infos, err := live.classifyMDZones(variant.devs[rolled])
				if err != nil {
					t.Fatal(err)
				}
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
func submitTimed(t *testing.T, c *vclock.Clock, v *Volume, lba int64, n int) {
	t.Helper()
	t0 := c.Now()
	fut := v.SubmitWrite(lba, lbaPattern(v, lba, n), 0)
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
// entered it — for the partial-parity log (header-sector and inline-meta
// encodings) and for the general log (per-stripe checksum records).
func TestRollOverAddsNoSimulatedTime(t *testing.T) {
	parity := func(devCfg zns.Config, mode ParityMode) {
		c := vclock.New()
		c.Run(func() {
			cfg := DefaultConfig()
			cfg.ParityMode = mode
			r := newMDGCRig(t, c, devCfg, cfg)
			for round := 0; round < 6; round++ {
				for z := 0; z < 3; z++ {
					submitTimed(t, c, r.v, int64(z)*r.v.ZoneSectors()+r.acked[z], 8)
					r.acked[z] += 8
				}
			}
			if r.v.Stats().MetadataGCs == 0 {
				t.Errorf("mode %d: the parity log never rolled over", mode)
			}
			if w := r.v.Stats().MetadataGCWaits; w != 0 {
				t.Errorf("mode %d: %d appends waited for a swap zone", mode, w)
			}
		})
	}
	t.Run("parity", func(t *testing.T) { parity(testDevConfig(), PPLog) })
	t.Run("parity-inline-meta", func(t *testing.T) { parity(extDevConfig(), PPInlineMeta) })

	t.Run("general", func(t *testing.T) {
		runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
			// Zone 0's checksum records and black boxes share device 0's
			// general log: fill it to within a few sectors with boxes.
			if v.checksumDev(0) != 0 {
				t.Fatal("zone 0 checksums expected on device 0")
			}
			for i := 0; i < 4; i++ {
				if err := v.PersistBlackBox(make([]byte, 29*v.sectorSize)); err != nil {
					t.Fatal(err)
				}
			}
			stripe := int(v.lt.stripeSectors())
			for s := 0; s < 8; s++ {
				submitTimed(t, c, v, int64(s*stripe), stripe)
			}
			if v.Stats().MetadataGCs == 0 {
				t.Error("the general log never rolled over")
			}
		})
	})
}

// bigRecord is a general-log record of n sectors in total.
func bigRecord(v *Volume, n int) *record {
	size := (n - 1) * v.sectorSize
	return &record{typ: recFlightBox, startLBA: int64(size), gen: v.nextMDSeq(), payload: make([]byte, size)}
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
		m.mu.Lock()
		err := m.rollLocked(mdParity, devs[0])
		m.mu.Unlock()
		if err != nil {
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
				m.mu.Lock()
				err = m.rollLocked(mdParity, devs[0])
				m.mu.Unlock()
				if err != nil {
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
		m.mu.Lock()
		err := m.rollLocked(mdGeneral, r.devs[r.pdev])
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
		if err := v.md[2].forceGC(mdParity); err != nil {
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
