package zns

import "math/rand"

// This file implements latent-error injection: per-sector unreadable
// ("latent") sectors and silent bit-rot of at-rest data. Both are the
// media failure modes a scrub subsystem exists to catch — they do not
// fail the device, they corrupt or withhold individual sectors, and
// they accumulate silently between whole-device failures.
//
// The device injects only the faults a caller names, through
// InjectReadError and CorruptSector ("corrupt exactly this stripe
// unit"). Semantics chosen to match real media:
//
//   - A latent read error is persistent: every read covering the sector
//     fails with ErrReadMedium until the zone is reset (zoned media
//     cannot rewrite in place; the host must relocate around it).
//   - Bit-rot mutates the at-rest payload. Reads return the rotted bytes
//     without error — detection is the host's problem.

// faultRNGLocked lazily builds the RNG that picks which bit
// CorruptSector flips, seeded alike on every device so injected rot
// replays bit-identically. Caller holds d.mu.
func (d *Device) faultRNGLocked() *rand.Rand {
	if d.faultRNG == nil {
		d.faultRNG = rand.New(rand.NewSource(1))
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
	d.corruptSectorLocked(z, off)
	return nil
}

// corruptSectorLocked flips a deterministic-by-rng bit of zone-relative
// sector off of zone z, after the zone's copies in flight have finished:
// the reads have their bytes and the writes' have landed. Caller holds
// d.mu and has validated off < wp.
func (d *Device) corruptSectorLocked(z int, off int64) {
	d.drainCopiesLocked(z)
	rng := d.faultRNGLocked()
	ss := int64(d.cfg.SectorSize)
	byteIdx := off*ss + int64(rng.Intn(d.cfg.SectorSize))
	d.zones[z].data[byteIdx] ^= 1 << uint(rng.Intn(8))
	d.injectedRot++
}

// readFaultLocked decides whether a read of [sector, sector+n) fails
// with a latent error: it does while it covers a latent sector. Caller
// holds d.mu.
func (d *Device) readFaultLocked(sector, nSectors int64) error {
	for s := sector; s < sector+nSectors; s++ {
		if d.latentErrs[s] {
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
