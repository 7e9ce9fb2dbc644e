package blockdev

import "math/rand"

// Latent-error injection for the conventional-SSD model, mirroring the
// zns package (see internal/zns/faults.go for the semantics rationale):
// the device injects only the faults a caller names. One difference
// follows from the interface: a conventional device can be rewritten in
// place, so rewriting a latent logical sector repairs it — which is
// exactly how mdraid's check/repair scrub fixes unreadable sectors
// (reconstruct from peers, rewrite in place).

// faultRNGLocked lazily builds the RNG that picks which bit
// CorruptSector flips. Caller holds d.mu.
func (d *Device) faultRNGLocked() *rand.Rand {
	if d.faultRNG == nil {
		d.faultRNG = rand.New(rand.NewSource(1))
	}
	return d.faultRNG
}

// InjectReadError marks the logical sector as a latent read error:
// every subsequent read covering it completes with ErrReadMedium until
// the sector is rewritten.
func (d *Device) InjectReadError(sector int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed {
		return ErrDeviceFailed
	}
	if sector < 0 || sector >= d.cfg.NumSectors {
		return ErrOutOfRange
	}
	if d.latentErrs == nil {
		d.latentErrs = make(map[int64]bool)
	}
	d.latentErrs[sector] = true
	return nil
}

// CorruptSector flips one bit of the mapped flash page backing the
// logical sector (silent bit-rot): reads succeed and return the
// corrupted bytes. The sector must be mapped (written) and the device
// must store payloads.
func (d *Device) CorruptSector(sector int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed {
		return ErrDeviceFailed
	}
	if d.data == nil {
		return ErrNoData
	}
	if sector < 0 || sector >= d.cfg.NumSectors {
		return ErrOutOfRange
	}
	pp := d.l2p[sector]
	if pp == unmapped {
		return ErrOutOfRange
	}
	d.corruptPageLocked(pp)
	return nil
}

// corruptPageLocked flips a deterministic-by-rng bit of physical page
// pp. Caller holds d.mu; d.data is non-nil.
func (d *Device) corruptPageLocked(pp int64) {
	rng := d.faultRNGLocked()
	pg := d.pageData(pp)
	pg[rng.Intn(len(pg))] ^= 1 << uint(rng.Intn(8))
}

// readFaultLocked decides whether a read of [sector, sector+n) fails
// with a latent error: it does while it covers a latent sector. Caller
// holds d.mu.
func (d *Device) readFaultLocked(sector, nSectors int64) error {
	for s := sector; s < sector+nSectors; s++ {
		if d.latentErrs[s] {
			return ErrReadMedium
		}
	}
	return nil
}
