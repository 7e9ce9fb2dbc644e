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
	for z := range d.zones {
		cut := d.zones[z].pwp
		if rng != nil {
			cut = d.pickCutLocked(z, rng)
		}
		d.applyCutLocked(z, cut)
	}
	d.finishPowerCycleLocked()
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
	for z := range d.zones {
		cut := d.zones[z].pwp
		if c, ok := cuts[z]; ok {
			if c < d.zones[z].pwp {
				c = d.zones[z].pwp
			}
			if c > d.zones[z].wp {
				c = d.zones[z].wp
			}
			cut = c
		}
		d.applyCutLocked(z, cut)
	}
	d.finishPowerCycleLocked()
}

// pickCutLocked chooses a random survival point for zone z among the
// valid candidates: the persisted prefix, the end of each unflushed
// write, and atomic-granularity boundaries inside unflushed writes.
func (d *Device) pickCutLocked(z int, rng *rand.Rand) int64 {
	zo := &d.zones[z]
	candidates := []int64{zo.pwp}
	for _, e := range zo.unflushed {
		for b := e.start + d.cfg.AtomicWriteSectors; b < e.end; b += d.cfg.AtomicWriteSectors {
			candidates = append(candidates, b)
		}
		candidates = append(candidates, e.end)
	}
	return candidates[rng.Intn(len(candidates))]
}

// applyCutLocked discards all zone data at and beyond the cut point.
// Pulling the write pointer back is the whole discard: the lost bytes stay
// in the backing buffer, unreadable above the write pointer like any
// recycled buffer's residue (zoneBufLocked), until later writes replace
// them.
func (d *Device) applyCutLocked(z int, cut int64) {
	zo := &d.zones[z]
	// A full zone's fullness is durable only if it became full on media;
	// if the cut rolls back below capacity the zone is no longer full.
	zo.wp = cut
	zo.pwp = cut
	// Emptied in place, keeping its capacity: no other device shares the
	// backing array, as CrashClone gives a clone a copy of its own.
	zo.unflushed = zo.unflushed[:0]
	// In-ZRWA bytes past the cut are gone; the cumulative flash counter
	// never rolls back, but the zone's programmed pointer cannot exceed
	// its surviving contents.
	if zo.prog > cut {
		zo.prog = cut
	}
}

// CrashClone returns a new device, bound to clk, whose state is this
// device's state after an abrupt power loss — without disturbing the
// receiver. It is the explorer's snapshot primitive: the live run keeps
// executing while recovery is exercised against the clone.
//
// Cut-point selection per zone, in precedence order: an entry in cuts
// (PowerLossAt semantics — clamped to [pwp, wp]); else a draw from rng
// (PowerLoss semantics); else the persisted prefix only (the most
// pessimistic legal outcome). The clone carries no journal, metrics or
// hook attachments, and its lifetime counters start at zero.
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
	// The clone is unshared, so its zone mutators run without its lock.
	for z := range c.zones {
		cut := c.zones[z].pwp
		switch {
		case cuts != nil:
			if x, ok := cuts[z]; ok {
				if x < cut {
					x = cut
				}
				if x > c.zones[z].wp {
					x = c.zones[z].wp
				}
				cut = x
			}
		case rng != nil:
			cut = c.pickCutLocked(z, rng)
		}
		c.applyCutLocked(z, cut)
	}
	c.finishPowerCycleLocked()
	return c
}

// finishPowerCycleLocked recomputes zone states and resets volatile
// device state after the cut points are applied.
func (d *Device) finishPowerCycleLocked() {
	d.nOpen = 0
	d.nActive = 0
	for z := range d.zones {
		zo := &d.zones[z]
		switch zo.state {
		case ZoneReadOnly, ZoneOffline:
			continue // media failure states survive power cycles
		}
		switch {
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
