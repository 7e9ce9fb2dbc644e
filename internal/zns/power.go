package zns

import (
	"math/rand"

	"raizn/internal/vclock"
)

// Fail marks the device as dead: every subsequent operation returns
// ErrDeviceFailed. In-flight operations complete normally (their data had
// already reached the device). This models whole-device failure for
// degraded-mode and rebuild testing.
func (d *Device) Fail() {
	d.mu.Lock()
	d.failed = true
	d.mu.Unlock()
}

// Failed reports whether the device has been failed.
func (d *Device) Failed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.failed
}

// PowerLoss simulates an abrupt power failure followed by power-on:
//
//   - Flushed data (each zone's persisted prefix) always survives.
//   - Unflushed writes survive as a per-zone prefix: within each zone the
//     device picks a cut point at an unflushed-write or atomic-write-
//     granularity boundary; data before the cut survives, data after is
//     lost. This models the ZNS guarantee that data at an LBA is never
//     persisted before data at preceding LBAs of the same zone.
//   - In-flight operations complete with ErrPowerLoss.
//   - All open zones transition to closed (empty if nothing written),
//     as on a real power cycle.
//
// rng drives the cut-point choice; pass a seeded source for reproducible
// crashes. PowerLoss with a nil rng keeps only flushed data (the most
// pessimistic outcome).
func (d *Device) PowerLoss(rng *rand.Rand) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.drainCopiesLocked(-1) // rewrites below the cut replace bytes copies may touch
	d.powerCycleLocked(rng, nil)
}

// PowerLossAt simulates power loss with an exact survival point per zone:
// cuts maps zone index to the zone-relative sector count that survives.
// Zones not in the map keep only their flushed prefix. Cut points are
// clamped to [pwp, wp]. This is the deterministic variant used by crash-
// consistency tests to construct precise stripe-hole scenarios.
func (d *Device) PowerLossAt(cuts map[int]int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.drainCopiesLocked(-1)
	d.powerCycleLocked(nil, cuts)
}

// CrashClone returns a new device, bound to clk, whose state is this
// device's state after an abrupt power loss — without disturbing the
// receiver. It is the explorer's snapshot primitive: the live run keeps
// executing while recovery is exercised against the clone. The cuts are
// chosen as powerCycleLocked says: PowerLoss(rng) and PowerLossAt(cuts)
// leave the device as CrashClone(nil, rng, nil) and CrashClone(nil, nil,
// cuts) leave their clones. The clone carries no journal, metrics or hook
// attachments, and its lifetime counters start at zero.
func (d *Device) CrashClone(clk *vclock.Clock, rng *rand.Rand, cuts map[int]int64) *Device {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.drainCopiesLocked(-1) // the clone copies zone memory: writes' copies land first
	if clk == nil {
		clk = d.clk
	}
	c := &Device{
		cfg:    d.cfg,
		clk:    clk,
		zones:  make([]zone, len(d.zones)),
		failed: d.failed,
	}
	for z := range d.zones {
		zo := d.zones[z]
		cz := zo
		if zo.data != nil {
			cz.data = append([]byte(nil), zo.data...)
		}
		cz.unflushed = append([]extent(nil), zo.unflushed...)
		cz.wcopies = 0
		c.zones[z] = cz
	}
	if d.latentErrs != nil {
		c.latentErrs = make(map[int64]bool, len(d.latentErrs))
		for s, v := range d.latentErrs {
			c.latentErrs[s] = v
		}
	}
	c.powerCycleLocked(rng, cuts) // the clone is unshared: no lock needed
	return c
}

// powerCycleLocked is the one power-cut rule. Each zone, in zone order,
// keeps the prefix up to its cut: an entry in cuts, clamped to [pwp, wp];
// else a draw from rng among the persisted prefix, the end of each
// unflushed write and the atomic-granularity boundaries inside one; else
// the persisted prefix only (the most pessimistic legal outcome). Pulling
// the write pointer back is the whole discard: the lost bytes stay in the
// backing buffer, unreadable above the write pointer like any recycled
// buffer's residue (zoneBufLocked), until later writes replace them. Then
// zone states are recomputed from what survived, in-flight commands are
// voided and the pipes go idle. Caller holds d.mu.
func (d *Device) powerCycleLocked(rng *rand.Rand, cuts map[int]int64) {
	d.nOpen, d.nActive = 0, 0
	for z := range d.zones {
		zo := &d.zones[z]
		cut := zo.pwp
		if c, ok := cuts[z]; ok {
			cut = min(max(c, zo.pwp), zo.wp)
		} else if rng != nil {
			candidates := []int64{zo.pwp}
			for _, e := range zo.unflushed {
				for b := e.start + d.cfg.AtomicWriteSectors; b < e.end; b += d.cfg.AtomicWriteSectors {
					candidates = append(candidates, b)
				}
				candidates = append(candidates, e.end)
			}
			cut = candidates[rng.Intn(len(candidates))]
		}
		// A full zone's fullness is durable only if it became full on
		// media; if the cut rolls back below capacity it is no longer full.
		// unflushed is emptied in place, keeping its capacity: no other
		// device shares the backing array, as CrashClone gives a clone a
		// copy of its own. In-ZRWA bytes past the cut are gone; the
		// cumulative flash counter never rolls back, but the zone's
		// programmed pointer cannot exceed its surviving contents.
		zo.wp, zo.pwp, zo.unflushed, zo.prog = cut, cut, zo.unflushed[:0], min(zo.prog, cut)
		switch {
		case zo.state == ZoneReadOnly || zo.state == ZoneOffline:
			// media failure states survive power cycles
		case zo.finished || zo.wp >= d.cfg.ZoneCap:
			zo.state = ZoneFull
		case zo.wp == 0:
			zo.state = ZoneEmpty
		default:
			zo.state = ZoneClosed
			d.nActive++
		}
	}
	d.epoch++
	d.writeBusy = 0
	d.readBusy = 0
}
