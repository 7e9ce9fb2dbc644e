package chaos

import (
	"fmt"
	"math"

	"raizn/internal/obs"
	"raizn/internal/raizn"
	"raizn/internal/zns"
)

// Violation is one contract breach found by the recovery checker.
type Violation struct {
	Rule    string // short rule id, e.g. "unexplained-bytes"
	Detail  string
	Point   string // crash point the snapshot was taken at
	Occ     int    // occurrence of that point name in the census
	Index   int    // census index of the crossing
	Variant Variant
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] at %s#%d (crossing %d, %s): %s",
		v.Rule, v.Point, v.Occ, v.Index, v.Variant, v.Detail)
}

// devJournalState is the journal's view of one device: per zone, the
// highest write pointer any recorded command produced, and whether the
// zone was finished. A crash clone can never hold data beyond it.
type devJournalState struct {
	maxEnd   map[int]int64
	finished map[int]bool
}

// journalView folds the captured event stream into per-device state.
func journalView(events []obs.Event, numDev int) []devJournalState {
	view := make([]devJournalState, numDev)
	for i := range view {
		view[i] = devJournalState{maxEnd: map[int]int64{}, finished: map[int]bool{}}
	}
	for _, e := range events {
		src := int(e.Src)
		if src < 0 || src >= numDev {
			continue // logical-level event
		}
		z := int(e.Zone)
		switch e.Type {
		case obs.EvDevWrite:
			if view[src].maxEnd[z] < e.C {
				view[src].maxEnd[z] = e.C
			}
		case obs.EvZoneReset:
			view[src].maxEnd[z] = 0
			view[src].finished[z] = false
		case obs.EvZoneFinish:
			view[src].finished[z] = true
		}
	}
	return view
}

// mountCrash applies the rules that need no workload model to one
// array's crash snapshot and mounts it:
//
//   - "open-after-cycle": no zone may be open after a power cycle.
//   - J1 "unexplained-bytes": no device zone survives the power cut with
//     a write pointer beyond the highest journaled write (persistence
//     ordering — every surviving byte is explainable by a recorded,
//     submitted command). Checked on the raw clones, with a complete
//     journal only.
//   - "unmountable" / "recovery-failed" / "recovery-readonly": the array
//     must mount and stay writable after any single crash.
//
// It returns the journal view and the mounted volume, nil when mounting
// failed. The caller must not be inside ac.Clk.Run.
func mountCrash(ac ArrayCrash, add func(string, string, ...interface{})) ([]devJournalState, *raizn.Volume) {
	view := journalView(ac.Events, len(ac.Clones))
	var live []*zns.Device
	for i, c := range ac.Clones {
		descs := c.ReportZones()
		for _, zd := range descs {
			if zd.State == zns.ZoneOpen {
				add("open-after-cycle", "dev %d zone %d open after power cycle", i, zd.Index)
			}
		}
		if c.Failed() {
			continue // stale pre-failure state
		}
		live = append(live, c)
		if ac.Dropped > 0 {
			continue // incomplete journal
		}
		for _, zd := range descs {
			if zd.State == zns.ZoneFull && view[i].finished[zd.Index] {
				// A finished zone reports WP at capacity regardless of how
				// much data it holds; finishing adds no bytes to explain.
				continue
			}
			rel := zd.WP - c.ZoneStart(zd.Index)
			if max := view[i].maxEnd[zd.Index]; rel > max {
				add("unexplained-bytes",
					"dev %d zone %d: wp %d survives but journal explains only %d",
					i, zd.Index, rel, max)
			}
		}
	}
	if len(ac.Clones)-len(live) > 1 {
		add("unmountable", "%d failed devices", len(ac.Clones)-len(live))
		return view, nil
	}
	var vol *raizn.Volume
	var merr error
	ac.Clk.Run(func() { vol, merr = raizn.Mount(ac.Clk, live, ac.Config) })
	if merr != nil {
		add("recovery-failed", "mount: %v", merr)
		return view, nil
	}
	if vol.ReadOnly() {
		add("recovery-readonly", "array mounted read-only")
	}
	return view, vol
}

// checkWatermarks applies the write-pointer rules to logical zone z,
// recovered with zone-relative write pointer wp in state st:
//
//   - "lost-durable-data": wp may not fall below the known-durable prefix
//     (flush/FUA/finish completed).
//   - "finish-durability": a completed FinishZone survives as a full zone.
//   - "phantom-data": nor may wp exceed everything ever submitted; a
//     finished zone's wp reads capacity whatever it holds, so it is
//     exempt.
func checkWatermarks(add func(string, string, ...interface{}), z int, wp int64, st zns.ZoneState, wm ZoneWatermarks) {
	if wp < wm.Durable {
		add("lost-durable-data",
			"zone %d: wp %d below durable prefix %d", z, wp, wm.Durable)
	}
	if wm.Finished {
		if st != zns.ZoneFull {
			add("finish-durability",
				"zone %d: finished zone recovered in state %v", z, st)
		}
		return
	}
	if wp > wm.Submitted {
		add("phantom-data",
			"zone %d: wp %d beyond everything submitted (%d)", z, wp, wm.Submitted)
	}
}

// watermarks projects the model onto checkWatermarks: the flushed prefix
// is durable, and the furthest accepted or in-flight write end bounds
// what may survive unless a finish, which pads to capacity, is in flight.
func (zm *ZoneModel) watermarks() ZoneWatermarks {
	wm := ZoneWatermarks{
		Durable:   zm.FlushedWP,
		Submitted: max(zm.WrittenWP, zm.PendingEnd),
		Finished:  zm.Finished,
	}
	if zm.Finishing {
		wm.Submitted = math.MaxInt64
	}
	return wm
}

// checkRecovery mounts the captured crash snapshot and validates every
// recovery contract: mountCrash's clone and mount rules, checkWatermarks'
// write-pointer rules against the workload model, and
//
//   - "reset-atomicity": a crash during ResetZone leaves the zone either
//     fully reset (mandatory once the reset WAL is durable) or untouched
//     at its pre-reset generation.
//   - "content-mismatch": recovered bytes must match the generation-
//     stamped pattern the workload wrote.
//   - "unexplained-stripe-unit": every recovered logical sector beyond
//     the durable prefix maps (via the stripe layout arithmetic) to a
//     journaled device write covering its stripe unit.
//   - "probe-failed": the recovered array must accept and serve a fresh
//     write.
//
// The returned violations carry only Rule and Detail; the caller stamps
// crash-point coordinates.
func checkRecovery(s *Scenario, cap *capture) []Violation {
	var vios []Violation
	add := func(rule, format string, args ...interface{}) {
		vios = append(vios, Violation{Rule: rule, Detail: fmt.Sprintf(format, args...)})
	}
	view, vol := mountCrash(cap.ArrayCrash, add)
	if vol == nil {
		return vios
	}

	// --- Post-mount: logical contracts vs the workload model --------
	m := cap.model
	ss := vol.SectorSize()
	cap.Clk.Run(func() {
		for z := range m.Zones {
			zm := &m.Zones[z]
			zoneStart := int64(z) * m.ZoneSectors
			desc := vol.Zone(z)
			wp := desc.WP - zoneStart

			if zm.Resetting {
				committed := zm.WALDurable || zm.PhysDone
				switch {
				case committed && wp != 0:
					add("reset-atomicity",
						"zone %d: reset WAL durable but zone recovered with wp %d", z, wp)
				case !committed && wp > zm.PreResetWP:
					add("reset-atomicity",
						"zone %d: wp %d beyond pre-reset wp %d", z, wp, zm.PreResetWP)
				case !committed && wp > 0 && !zm.Suspect:
					// Rolled back: surviving prefix must be old-generation.
					checkContent(vol, add, zoneStart, wp, zm.PreResetGen, ss, z)
				}
				continue
			}

			checkWatermarks(add, z, wp, desc.State, zm.watermarks())

			end := wp
			if end > zm.WrittenWP {
				end = zm.WrittenWP
			}
			if end > 0 && !zm.Suspect {
				checkContent(vol, add, zoneStart, end, zm.Gen, ss, z)
			}

			checkStripeUnits(s, cap, view, add, z, zm, wp, desc)
		}

		probeWrite(vol, m, add, ss)
	})
	return vios
}

// checkContent reads zone-relative [0, end) of the zone starting at
// zoneStart and compares against the generation pattern.
func checkContent(vol *raizn.Volume, add func(string, string, ...interface{}), zoneStart, end int64, gen, ss int, z int) {
	buf := make([]byte, end*int64(ss))
	if err := vol.Read(zoneStart, buf); err != nil {
		add("content-mismatch", "zone %d: read [0,%d): %v", z, end, err)
		return
	}
	want := make([]byte, len(buf))
	fillPattern(want, zoneStart, gen, ss)
	for i := range buf {
		if buf[i] != want[i] {
			add("content-mismatch",
				"zone %d gen %d: byte %d of sector %d differs (got %#x want %#x)",
				z, gen, i%ss, int64(i/ss), buf[i], want[i])
			return
		}
	}
}

// checkStripeUnits asserts persistence ordering at stripe granularity:
// every recovered logical sector beyond the zone's durable prefix must
// map, through the layout arithmetic, to a device zone whose journaled
// write pointer covers it. Skipped when relocation has moved units off
// their arithmetic location or the journal is incomplete.
func checkStripeUnits(s *Scenario, cap *capture, view []devJournalState, add func(string, string, ...interface{}), z int, zm *ZoneModel, wp int64, desc raizn.ZoneDesc) {
	if cap.Dropped > 0 || desc.Remapped || zm.Suspect {
		return
	}
	for _, e := range cap.Events {
		if e.Type == obs.EvRelocation {
			return
		}
	}
	n := int64(len(cap.Clones))
	su := s.Vol.StripeUnitSectors
	stripeSec := su * (n - 1)
	for lba := zm.FlushedWP; lba < wp; {
		st := lba / stripeSec
		inStripe := lba % stripeSec
		u := inStripe / su
		intra := inStripe % su
		step := su - intra
		if lba+step > wp {
			step = wp - lba
		}
		// Left-symmetric rotation, kept apart from raizn's UnitLocation as
		// an independent reference.
		pdev := n - 1 - (st+int64(z))%n
		dev := int((pdev + 1 + u) % n)
		if !cap.model.FailedDevs[dev] {
			needEnd := st*su + intra + step
			if max := view[dev].maxEnd[z]; max < needEnd && !view[dev].finished[z] {
				// §5.3 write-hole closure: a data unit whose device
				// command was lost in the crash is still explainable when
				// the stripe's other n-1 arithmetic locations — every
				// sibling unit and the rotated parity unit — are
				// journaled; recovery XORs the unit back, so the
				// recovered sectors trace to journaled commands. Arises
				// with multi-stripe writes, where per-device coalescing
				// lets a stripe's parity survive a crash its data didn't.
				reconstructable := true
				for d2 := 0; d2 < int(n); d2++ {
					if d2 == dev {
						continue
					}
					if view[d2].maxEnd[z] < needEnd && !view[d2].finished[z] {
						reconstructable = false
						break
					}
				}
				if !reconstructable {
					add("unexplained-stripe-unit",
						"zone %d sector %d..%d: dev %d zone wp in journal is %d, need %d",
						z, lba, lba+step, dev, max, needEnd)
					return
				}
			}
		}
		lba += step
	}
}

// probeWrite appends a fresh write to the first writable zone of the
// recovered array and reads it back. Must run inside cap.Clk.Run.
func probeWrite(vol *raizn.Volume, m *Model, add func(string, string, ...interface{}), ss int) {
	for z := range m.Zones {
		zm := &m.Zones[z]
		if zm.Finished || zm.Finishing || zm.Resetting || zm.Suspect {
			continue
		}
		desc := vol.Zone(z)
		wp := desc.WP - int64(z)*m.ZoneSectors
		if wp < 0 || wp >= m.ZoneSectors {
			continue
		}
		n := m.ZoneSectors - wp
		if n > 16 {
			n = 16
		}
		buf := make([]byte, n*int64(ss))
		for i := range buf {
			buf[i] = byte(0x5A ^ i)
		}
		lba := desc.WP
		if err := vol.Write(lba, buf, zns.FUA); err != nil {
			add("probe-failed", "zone %d: write at %d: %v", z, lba, err)
			return
		}
		got := make([]byte, len(buf))
		if err := vol.Read(lba, got); err != nil {
			add("probe-failed", "zone %d: read-back at %d: %v", z, lba, err)
			return
		}
		for i := range got {
			if got[i] != buf[i] {
				add("probe-failed", "zone %d: read-back byte %d differs", z, i)
				return
			}
		}
		return // one probe is enough
	}
}
