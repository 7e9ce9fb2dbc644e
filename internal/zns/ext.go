package zns

import (
	"errors"

	"raizn/internal/obs"
	"raizn/internal/vclock"
)

// This file implements the optional Zone Random Write Area (ZRWA), which
// the paper's §5.4 discusses as a future optimization for RAIZN: a window
// of ZRWASectors behind the write pointer that may be overwritten in
// place, letting a host update recently written blocks (e.g. partial
// parity) without violating the sequential-write rule. It is disabled by
// default (ZRWASectors = 0), matching the devices in the paper's testbed.

// Extension errors.
var (
	ErrNoZRWA      = errors.New("zns: device has no ZRWA configured")
	ErrOutsideZRWA = errors.New("zns: overwrite outside the random write area")
)

// WriteZRWA submits a write that may overwrite data within the zone's
// random write area: the window [wp-ZRWASectors, wp). Writes may also
// extend past the write pointer (advancing it), so a caller can grow and
// re-grow a record in place. Unlike Write, it copies its payload into
// zone memory at submit, so data is the caller's again at return (the
// zraid engine builds every fresh slot's padded write in one reused
// buffer). Crash semantics simplification: an unflushed in-place
// overwrite that is lost to power failure reverts to nothing (the zone
// prefix cut), not to the previous version of the block.
func (d *Device) WriteZRWA(sector int64, data []byte, flags Flag) *vclock.Future {
	return d.WriteZRWASpan(nil, nil, sector, data, flags)
}

// WriteZRWASpan is WriteZRWA with a tracing span, completing fut (nil: a
// new future).
func (d *Device) WriteZRWASpan(sp *obs.Span, fut *vclock.Future, sector int64, data []byte, flags Flag) *vclock.Future {
	if d.cfg.ZRWASectors <= 0 {
		return d.failSpan(sp, fut, ErrNoZRWA)
	}
	if len(data) == 0 || len(data)%d.cfg.SectorSize != 0 {
		return d.failSpan(sp, fut, ErrUnaligned)
	}
	nSectors := int64(len(data) / d.cfg.SectorSize)

	d.mu.Lock()
	if d.failed {
		d.mu.Unlock()
		return d.failSpan(sp, fut, ErrDeviceFailed)
	}
	z, off, err := d.checkSpan(sector, nSectors)
	if err != nil {
		d.mu.Unlock()
		return d.failSpan(sp, fut, err)
	}
	zo := &d.zones[z]
	switch zo.state {
	case ZoneFull:
		d.mu.Unlock()
		return d.failSpan(sp, fut, ErrZoneFull)
	case ZoneReadOnly, ZoneOffline:
		d.mu.Unlock()
		return d.failSpan(sp, fut, ErrZoneUnavailable)
	}
	// The write must start within (or at the end of) the window.
	lo := zo.wp - d.cfg.ZRWASectors
	if lo < 0 {
		lo = 0
	}
	if off < lo || off > zo.wp {
		d.mu.Unlock()
		return d.failSpan(sp, fut, ErrOutsideZRWA)
	}
	if err := d.transitionToOpenLocked(z); err != nil {
		d.mu.Unlock()
		return d.failSpan(sp, fut, err)
	}
	if !d.cfg.DiscardData {
		if off < zo.wp {
			d.drainCopiesLocked(z) // an overwrite in place
		}
		dmaCopy(d.zoneBufLocked(zo)[off*int64(d.cfg.SectorSize):], data)
	}
	end := off + nSectors
	if end > zo.wp {
		zo.unflushed = append(zo.unflushed, extent{start: zo.wp, end: end})
		zo.wp = end
	}
	zo.zrwa = true
	d.finalizeFullLocked(z)
	d.programLocked(z)
	d.hostWriteBytes += nSectors * int64(d.cfg.SectorSize)
	d.writeCmds++
	if d.jrn.Enabled() {
		var fb int64
		if flags&FUA != 0 {
			fb |= 1
		}
		d.jrn.Record(obs.EvDevWrite, d.jslot, z, off, nSectors, zo.wp, fb)
	}
	hf := d.hookLocked("zns.cmd.zrwa", z, sector)

	now := d.clk.Now()
	occ := d.slowLocked(d.cfg.WriteOpOverhead + d.xferTime(len(data), d.cfg.WriteBandwidth))
	sp.SetSegs(1)
	markPipe(sp, d.writeBusy, now)
	media := reservePipe(&d.writeBusy, now, occ)
	sp.MarkAt(obs.PhaseMedia, media)
	pio := pendingIO{at: media + d.cfg.WriteLatency, fuaZ: -1}
	if flags&FUA != 0 {
		pio.fuaZ, pio.fuaEnd = z, end
	}
	fut = d.scheduleLocked(sp, fut, pio)
	d.mu.Unlock()
	fire(hf)
	return fut
}
