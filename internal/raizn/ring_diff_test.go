package raizn

import (
	"sync"
	"testing"

	"raizn/internal/obs"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// Differential tests for the submission/completion ring (Config.UseRing):
// draining whole per-device SQ groups under one lock acquisition, reaping
// the CQ with one walker per batch, and fusing XOR+CRC must be
// observationally identical to the direct path — same bytes, zone states,
// persistence bitmaps, checksum records, and crash-recovery outcome. The
// harness is the write-path differential harness (write_coalesce_test.go)
// pointed at UseRing instead of LegacyWritePath.

func ringConfig() Config {
	cfg := DefaultConfig()
	cfg.UseRing = true
	return cfg
}

// TestRingVsDirectDifferentialConcurrent races one pipelined writer per
// zone on the ring and direct paths and demands identical logical
// outcomes, then reads everything back through both paths (the ring run
// batches its read SQEs too).
func TestRingVsDirectDifferentialConcurrent(t *testing.T) {
	var snaps [2]volSnapshot
	var stats [2]Stats
	for i, cfg := range []Config{ringConfig(), DefaultConfig()} {
		i, cfg := i, cfg
		c := vclock.New()
		c.Run(func() {
			devs := newTestDevices(c, 5)
			v, err := Create(c, devs, cfg)
			if err != nil {
				t.Fatalf("Create: %v", err)
			}
			runDiffWorkload(t, c, v, true, true)
			snaps[i] = snapshotVolume(t, v)
			stats[i] = v.Stats()
			if err := v.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
		})
	}
	compareSnapshots(t, "ring-vs-direct", snaps[0], snaps[1])
	diffStats(t, "ring-vs-direct", stats[0], stats[1])
	if stats[0].CoalescedSubWrites != stats[1].CoalescedSubWrites {
		t.Errorf("CoalescedSubWrites differ: ring %d, direct %d",
			stats[0].CoalescedSubWrites, stats[1].CoalescedSubWrites)
	}
}

// TestRingVsDirectDifferentialZRWA repeats the differential on PPZRWA
// devices: in-place parity updates order against the staged SQ groups
// (the group is flushed before every ZRWA write), and that ordering must
// not change outcomes.
func TestRingVsDirectDifferentialZRWA(t *testing.T) {
	var snaps [2]volSnapshot
	var stats [2]Stats
	for i, ring := range []bool{true, false} {
		i, ring := i, ring
		c := vclock.New()
		c.Run(func() {
			devs := make([]*zns.Device, 5)
			for j := range devs {
				devs[j] = zns.NewDevice(c, extDevConfig())
			}
			cfg := DefaultConfig()
			cfg.ParityMode = PPZRWA
			cfg.UseRing = ring
			v, err := Create(c, devs, cfg)
			if err != nil {
				t.Fatalf("Create: %v", err)
			}
			runDiffWorkload(t, c, v, false, true)
			snaps[i] = snapshotVolume(t, v)
			stats[i] = v.Stats()
		})
	}
	compareSnapshots(t, "ring-zrwa", snaps[0], snaps[1])
	diffStats(t, "ring-zrwa", stats[0], stats[1])
	if stats[0].ZRWAParityWrites != stats[1].ZRWAParityWrites {
		t.Errorf("ZRWAParityWrites differ: ring %d, direct %d",
			stats[0].ZRWAParityWrites, stats[1].ZRWAParityWrites)
	}
	if stats[0].ZRWAParityWrites == 0 {
		t.Error("workload drove no in-place parity updates")
	}
}

// TestRingVsDirectDifferentialDegradedAndScrub checks that the fused
// XOR/CRC scrub pass and degraded-mode operation behave identically on
// both paths.
func TestRingVsDirectDifferentialDegradedAndScrub(t *testing.T) {
	var snaps [2]volSnapshot
	var verified [2]int
	var degradedReads [2]int64
	for i, cfg := range []Config{ringConfig(), DefaultConfig()} {
		i, cfg := i, cfg
		c := vclock.New()
		c.Run(func() {
			devs := newTestDevices(c, 5)
			v, err := Create(c, devs, cfg)
			if err != nil {
				t.Fatalf("Create: %v", err)
			}
			runDiffWorkload(t, c, v, true, true)
			if err := v.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
			wp := v.Zone(0).WP
			for s := int64(0); (s+1)*v.StripeSectors() <= wp; s++ {
				res, err := v.ScrubStripe(0, s, true)
				if err != nil {
					t.Fatalf("ScrubStripe(0, %d): %v", s, err)
				}
				if res.Mismatch {
					t.Errorf("ScrubStripe(0, %d): mismatch on healthy volume", s)
				}
				if res.Verified {
					verified[i]++
				}
			}
			if err := v.FailDevice(1); err != nil {
				t.Fatalf("FailDevice: %v", err)
			}
			zs := v.ZoneSectors()
			for z := 0; z < 3; z++ {
				zd := v.Zone(z)
				rel := zd.WP - int64(z)*zs
				if rel+16 <= zs {
					mustWriteV(t, v, zd.WP, 16, 0)
				}
			}
			snaps[i] = snapshotVolume(t, v)
			degradedReads[i] = v.Stats().DegradedReads
		})
	}
	compareSnapshots(t, "ring-degraded", snaps[0], snaps[1])
	if verified[0] != verified[1] || verified[0] == 0 {
		t.Errorf("scrub verified %d stripes on ring, %d direct", verified[0], verified[1])
	}
	if degradedReads[0] != degradedReads[1] {
		t.Errorf("DegradedReads differ: ring %d, direct %d", degradedReads[0], degradedReads[1])
	}
}

// runSeqDiffWorkload is the crash differential's workload: strictly
// sequential awaited writes (no FUA) so the global order of device
// command applications — and therefore of crash-point crossings — is
// identical on both paths, with one mid-workload flush so the
// flushed-only crash variant has a non-trivial persisted prefix.
func runSeqDiffWorkload(t *testing.T, v *Volume) {
	t.Helper()
	for z := 0; z < v.NumZones(); z++ {
		lba := int64(z) * v.ZoneSectors()
		for _, n := range diffWriteSizes(z, false) {
			if err := v.Write(lba, lbaPattern(v, lba, int(n)), 0); err != nil {
				t.Fatalf("zone %d write at %d: %v", z, lba, err)
			}
			lba += n
		}
		if z == 1 {
			if err := v.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
		}
	}
}

// crashCapture is one crash point's device clones: the all-submitted
// variant (every zone cut at its submitted write pointer) and the
// flushed-only variant (persisted prefixes), each bound to a fresh clock
// for recovery.
type crashCapture struct {
	k               int // write/append crossings at the capture instant
	allClk, flClk   *vclock.Clock
	allDevs, flDevs []*zns.Device
}

func captureCrash(devs []*zns.Device, k int) *crashCapture {
	cc := &crashCapture{k: k, allClk: vclock.New(), flClk: vclock.New()}
	for _, d := range devs {
		cuts := make(map[int]int64, d.Config().NumZones)
		for z := 0; z < d.Config().NumZones; z++ {
			cuts[z] = 1 << 62 // clamped to the zone's submitted WP
		}
		cc.allDevs = append(cc.allDevs, d.CrashClone(cc.allClk, nil, cuts))
		cc.flDevs = append(cc.flDevs, d.CrashClone(cc.flClk, nil, nil))
	}
	return cc
}

// crashVariant is one of a capture's two clone sets.
type crashVariant struct {
	name string // "all" or "flushed"
	clk  *vclock.Clock
	devs []*zns.Device
}

func (cc *crashCapture) variants() []crashVariant {
	return []crashVariant{{"all", cc.allClk, cc.allDevs}, {"flushed", cc.flClk, cc.flDevs}}
}

// mountAndSnapshot recovers one clone set and snapshots the result.
func mountAndSnapshot(t *testing.T, clk *vclock.Clock, devs []*zns.Device, cfg Config) volSnapshot {
	t.Helper()
	var snap volSnapshot
	clk.Run(func() {
		v, err := Mount(clk, devs, cfg)
		if err != nil {
			t.Fatalf("Mount crash clone: %v", err)
		}
		snap = snapshotVolume(t, v)
	})
	return snap
}

// TestRingVsDirectCrashAtDrain crashes the ring run at SQ-drain
// boundaries and the direct run at the equivalent command crossings, and
// demands byte-identical recovered state. The mapping: the device state
// after the ring's Nth "zns.ring.drain" crossing (the whole group is
// applied before the hook fires, with no virtual time mid-batch) equals
// the direct path's state after the Kth per-command crossing, where K is
// the cumulative accepted write/append count at that drain. The census
// pass records total drains; the capture passes clone every device at
// the chosen crossings (submitted-WP and flushed-only cuts) and recovery
// runs on the clones.
func TestRingVsDirectCrashAtDrain(t *testing.T) {
	isWrite := func(p obs.HookPoint) bool {
		return p.Name == "zns.cmd.write" || p.Name == "zns.cmd.append"
	}

	// Census: count the ring run's drain crossings.
	totalDrains := 0
	{
		c := vclock.New()
		c.Run(func() {
			devs := newTestDevices(c, 5)
			v, err := Create(c, devs, ringConfig())
			if err != nil {
				t.Fatalf("Create: %v", err)
			}
			var mu sync.Mutex
			hook := func(p obs.HookPoint) {
				if p.Name == "zns.ring.drain" {
					mu.Lock()
					totalDrains++
					mu.Unlock()
				}
			}
			for i, d := range devs {
				d.AttachHook(hook, i)
			}
			runSeqDiffWorkload(t, v)
		})
	}
	if totalDrains < 8 {
		t.Fatalf("workload crossed only %d ring drains; differential needs more", totalDrains)
	}
	targets := map[int]bool{
		totalDrains / 4:     true,
		totalDrains / 2:     true,
		3 * totalDrains / 4: true,
		totalDrains - 1:     true,
	}

	// Ring capture pass: clone at each target drain, recording K.
	ringCaps := map[int]*crashCapture{}
	{
		c := vclock.New()
		c.Run(func() {
			devs := newTestDevices(c, 5)
			v, err := Create(c, devs, ringConfig())
			if err != nil {
				t.Fatalf("Create: %v", err)
			}
			var mu sync.Mutex
			writes, drains := 0, 0
			hook := func(p obs.HookPoint) {
				mu.Lock()
				defer mu.Unlock()
				switch {
				case isWrite(p):
					writes++
				case p.Name == "zns.ring.drain":
					drains++
					if targets[drains] {
						ringCaps[drains] = captureCrash(devs, writes)
					}
				}
			}
			for i, d := range devs {
				d.AttachHook(hook, i)
			}
			runSeqDiffWorkload(t, v)
		})
	}
	if len(ringCaps) != len(targets) {
		t.Fatalf("captured %d of %d target drains", len(ringCaps), len(targets))
	}

	// Direct capture pass: clone at each ring capture's Kth crossing.
	kTargets := map[int]*crashCapture{} // K -> direct capture
	for _, cc := range ringCaps {
		kTargets[cc.k] = nil
	}
	{
		c := vclock.New()
		c.Run(func() {
			devs := newTestDevices(c, 5)
			v, err := Create(c, devs, DefaultConfig())
			if err != nil {
				t.Fatalf("Create: %v", err)
			}
			var mu sync.Mutex
			writes := 0
			hook := func(p obs.HookPoint) {
				if !isWrite(p) {
					return
				}
				mu.Lock()
				defer mu.Unlock()
				writes++
				if cc, ok := kTargets[writes]; ok && cc == nil {
					kTargets[writes] = captureCrash(devs, writes)
				}
			}
			for i, d := range devs {
				d.AttachHook(hook, i)
			}
			runSeqDiffWorkload(t, v)
		})
	}

	// Recover every pair and compare byte-for-byte. The ring clones are
	// mounted with the ring config so recovery itself also runs through
	// the batched read path.
	for drain, rc := range ringCaps {
		dc := kTargets[rc.k]
		if dc == nil {
			t.Fatalf("direct run never reached K=%d (drain %d)", rc.k, drain)
		}
		ringAll := mountAndSnapshot(t, rc.allClk, rc.allDevs, ringConfig())
		directAll := mountAndSnapshot(t, dc.allClk, dc.allDevs, DefaultConfig())
		compareSnapshots(t, "crash-all", ringAll, directAll)
		ringFl := mountAndSnapshot(t, rc.flClk, rc.flDevs, ringConfig())
		directFl := mountAndSnapshot(t, dc.flClk, dc.flDevs, DefaultConfig())
		compareSnapshots(t, "crash-flushed", ringFl, directFl)
	}
}
