package raizn

import (
	"raizn/internal/obs"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// SubmitAppend is the logical zone-append command: the volume assigns the
// write position (the logical zone's write pointer) and returns it with
// the completion future.
//
// Per §5.4, concurrent appends to one logical zone cannot be reordered
// freely the way a single device reorders them — an on-device reordering
// of stripe units would be unrecoverable after a crash — so RAIZN
// serializes appends per logical zone: the position is assigned under the
// zone lock and the data takes the ordinary write path — so, as for
// SubmitWrite, data must not change until the returned future completes.
// Appends to different zones proceed concurrently.
func (v *Volume) SubmitAppend(zone int, data []byte, flags zns.Flag) (int64, *vclock.Future) {
	if zone < 0 || zone >= v.lt.numZones {
		return -1, v.clk.Completed(ErrOutOfRange)
	}
	if len(data) == 0 || len(data)%v.sectorSize != 0 {
		return -1, v.clk.Completed(ErrUnaligned)
	}
	nSectors := int64(len(data) / v.sectorSize)
	if v.ReadOnly() {
		return -1, v.clk.Completed(ErrReadOnly)
	}
	// The position is not known until the lock is held: Arg is -1.
	v.fireHook("raizn.write.plan", obs.SrcLogical, zone, -1)

	lz := v.zones[zone]
	lz.mu.Lock()
	for lz.resetting {
		lz.cond.Wait()
	}
	if lz.state == zns.ZoneFull {
		lz.mu.Unlock()
		return -1, v.clk.Completed(ErrZoneFull)
	}
	off := lz.wp
	if off+nSectors > v.lt.zoneSectors() {
		lz.mu.Unlock()
		return -1, v.clk.Completed(ErrZoneBoundary)
	}
	if lz.state == zns.ZoneEmpty || lz.state == zns.ZoneClosed {
		if err := v.openZoneSlot(lz); err != nil {
			lz.mu.Unlock()
			return -1, v.clk.Completed(err)
		}
	}
	lba := v.lt.zoneStart(zone) + off
	lz.wp = off + nSectors
	sp := v.tracer.Begin(obs.OpWrite, lba, int64(len(data)))
	// runWrite unlocks lz.mu; appends share the whole write pipeline.
	return lba, v.runWrite(sp, lz, off, data, flags, v.clk.NewFuture())
}

// Append appends data to the logical zone and blocks until completion,
// returning the LBA the data landed at.
func (v *Volume) Append(zone int, data []byte, flags zns.Flag) (int64, error) {
	lba, fut := v.SubmitAppend(zone, data, flags)
	return lba, fut.Wait()
}
