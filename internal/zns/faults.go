package zns

import "math/rand"

// This file implements latent-error injection: per-sector unreadable
// ("latent") sectors and silent bit-rot of at-rest data. Both are the
// media failure modes a scrub subsystem exists to catch — they do not
// fail the device, they corrupt or withhold individual sectors, and
// they accumulate silently between whole-device failures.
//
// Faults are injected two ways:
//
//   - Explicitly, via InjectReadError / CorruptSector, for targeted
//     tests ("corrupt exactly this stripe unit").
//   - At a configured rate (ReadErrorRate, BitRotRate), drawn from a
//     dedicated *rand.Rand seeded with Config.FaultSeed, so whole fault
//     campaigns replay bit-identically.
//
// Semantics chosen to match real media:
//
//   - A latent read error is persistent: every read covering the sector
//     fails with ErrReadMedium until the zone is reset (zoned media
//     cannot rewrite in place; the host must relocate around it).
//   - Bit-rot mutates the at-rest payload and is applied when data
//     becomes persistent (rot is an at-rest phenomenon; data still in
//     the volatile write cache is not exposed to it). Reads return the
//     rotted bytes without error — detection is the host's problem.

// faultRNGLocked lazily builds the fault RNG. Caller holds d.mu.
func (d *Device) faultRNGLocked() *rand.Rand {
	if d.faultRNG == nil {
		d.faultRNG = rand.New(rand.NewSource(d.cfg.FaultSeed + 1))
	}
	return d.faultRNG
}

// InjectReadError marks the absolute sector as a latent read error:
// every subsequent read covering it completes with ErrReadMedium. The
// error persists until the containing zone is reset.
func (d *Device) InjectReadError(sector int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed {
		return ErrDeviceFailed
	}
	if sector < 0 || sector >= d.NumSectors() {
		return ErrOutOfRange
	}
	if d.latentErrs == nil {
		d.latentErrs = make(map[int64]bool)
	}
	if !d.latentErrs[sector] {
		d.latentErrs[sector] = true
		d.injectedReadErrs++
	}
	return nil
}

// CorruptSector flips one bit of the sector's at-rest payload (silent
// bit-rot): reads succeed and return the corrupted bytes. The sector
// must be written (below its zone's write pointer) and the device must
// store payloads (DiscardData off).
func (d *Device) CorruptSector(sector int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed {
		return ErrDeviceFailed
	}
	if d.cfg.DiscardData {
		return ErrNoData
	}
	if sector < 0 || sector >= d.NumSectors() {
		return ErrOutOfRange
	}
	z := d.ZoneOf(sector)
	off := sector - d.ZoneStart(z)
	zo := &d.zones[z]
	if off >= zo.wp || zo.data == nil {
		return ErrReadBeyondWP
	}
	d.corruptSectorLocked(zo, off)
	return nil
}

// corruptSectorLocked flips a deterministic-by-rng bit of zone-relative
// sector off, after the reads in flight have their copies (explicit
// CorruptSector and bit rot at persist alike). Caller holds d.mu and has
// validated off < wp.
func (d *Device) corruptSectorLocked(zo *zone, off int64) {
	d.drainCopiesLocked()
	rng := d.faultRNGLocked()
	ss := int64(d.cfg.SectorSize)
	byteIdx := off*ss + int64(rng.Intn(d.cfg.SectorSize))
	zo.data[byteIdx] ^= 1 << uint(rng.Intn(8))
	d.injectedRot++
}

// applyBitRotLocked draws per-sector rot for the newly persisted range
// [from, to) of zone z. Caller holds d.mu.
func (d *Device) applyBitRotLocked(z int, from, to int64) {
	if d.cfg.BitRotRate <= 0 || d.cfg.DiscardData {
		return
	}
	zo := &d.zones[z]
	if zo.data == nil {
		return
	}
	rng := d.faultRNGLocked()
	for s := from; s < to; s++ {
		if rng.Float64() < d.cfg.BitRotRate {
			d.corruptSectorLocked(zo, s)
		}
	}
}

// readFaultLocked decides whether a read of [sector, sector+n) fails
// with a latent error. Rate-injected errors are sticky: the first rate
// hit marks a concrete sector latent, so retries fail the same way
// until the host relocates around it. Caller holds d.mu.
func (d *Device) readFaultLocked(sector, nSectors int64) error {
	for s := sector; s < sector+nSectors; s++ {
		if d.latentErrs[s] {
			d.readMediumErrs++
			return ErrReadMedium
		}
	}
	if d.cfg.ReadErrorRate > 0 {
		rng := d.faultRNGLocked()
		if rng.Float64() < d.cfg.ReadErrorRate*float64(nSectors) {
			bad := sector + rng.Int63n(nSectors)
			if d.latentErrs == nil {
				d.latentErrs = make(map[int64]bool)
			}
			d.latentErrs[bad] = true
			d.injectedReadErrs++
			d.readMediumErrs++
			return ErrReadMedium
		}
	}
	return nil
}

// dropFaultsLocked clears latent read errors within zone z after a
// reset (the erase block is rewritten; the grown defect is remapped by
// the device, as real SSD FTLs do). Caller holds d.mu.
func (d *Device) dropFaultsLocked(z int) {
	if d.latentErrs == nil {
		return
	}
	start := d.ZoneStart(z)
	end := start + d.cfg.ZoneSize
	for s := range d.latentErrs {
		if s >= start && s < end {
			delete(d.latentErrs, s)
		}
	}
}

// FaultCounters returns lifetime fault-injection counters: sectors
// marked as latent read errors, sectors hit by bit-rot, and reads that
// completed with ErrReadMedium.
func (d *Device) FaultCounters() (latentSectors, rottedSectors, readMediumErrors int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.injectedReadErrs, d.injectedRot, d.readMediumErrs
}
