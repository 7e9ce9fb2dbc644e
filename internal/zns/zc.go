package zns

import (
	"errors"

	"raizn/internal/obs"
	"raizn/internal/vclock"
)

// Zero-copy reads: instead of snapshotting the payload into a caller
// buffer at submit, the device hands out a subslice of the zone's
// backing buffer together with the zone's zc sequence number. The slice
// is a consistent view of the range as long as the sequence is
// unchanged; anything that mutates, frees or will let later writes
// replace written payload bumps it:
//
//   - zone reset (backing buffer detached),
//   - power loss / crash-clone cuts (write pointer pulled back; the next
//     writes land on the cut-off bytes),
//   - bit rot and CorruptSector (bytes flipped in place),
//   - ZRWA in-place overwrites.
//
// Ordinary writes only ever touch bytes at or beyond the write pointer,
// so views over written data stay intact across appends. A torn sequence
// never yields garbage memory — the old backing buffer is immutable once
// detached — it only means the view no longer reflects zone content, so
// callers re-read through the copying path.
//
// The device owns zone memory and recycles it: a reset hands the zone's
// buffer to the next zone that takes its first write (zoneBufLocked).
// "Immutable once detached" therefore needs the lent-view rule: the first
// zero-copy view of a zone marks its buffer lent until the zone's next
// reset, and a lent buffer is never recycled — the reset drops it, the
// view holders keep it alive, the garbage collector frees it. Only
// buffers that no one outside the device has ever seen are written again.

// ErrZCUnavailable reports that a range cannot be served zero-copy
// (payload discarded or not materialized, or the range is not fully
// below the write pointer). Callers fall back to a copying read.
var ErrZCUnavailable = errors.New("zns: range not zero-copy readable")

// ReadZCSpan submits a zero-copy read of [sector, sector+nSectors):
// simulated cost (read-pipe occupancy, latency) is identical to Read,
// but the returned data aliases device memory instead of being copied.
// The view is pinned by (zone, seq): it reflects zone content only while
// ZCValid(zone, seq) holds. Latent media errors are delivered through
// the future exactly as for Read. When the range cannot be served
// zero-copy the error is ErrZCUnavailable and no pipe time is charged.
func (d *Device) ReadZCSpan(sp *obs.Span, sector, nSectors int64) (data []byte, zone int, seq uint64, fut *vclock.Future, err error) {
	d.mu.Lock()
	data, zone, seq, pio, err := d.readZCApplyLocked(sp, sector, nSectors)
	epoch := d.epoch
	d.mu.Unlock()
	if err != nil {
		return nil, 0, 0, d.failSpan(sp, err), err
	}
	fut = d.clk.NewFuture()
	d.schedule(sp, fut, epoch, pio)
	return data, zone, seq, fut, nil
}

// readZCApplyLocked is the submit half of ReadZCSpan; see readApplyLocked
// for the copying twin. Caller holds d.mu.
func (d *Device) readZCApplyLocked(sp *obs.Span, sector, nSectors int64) (data []byte, zone int, seq uint64, pio pendingIO, err error) {
	if d.failed {
		return nil, 0, 0, pendingIO{}, ErrDeviceFailed
	}
	z, off, err := d.checkSpan(sector, nSectors)
	if err != nil {
		return nil, 0, 0, pendingIO{}, err
	}
	zo := &d.zones[z]
	if zo.state == ZoneOffline {
		return nil, 0, 0, pendingIO{}, ErrZoneUnavailable
	}
	if off+nSectors > zo.wp && zo.state != ZoneFull {
		return nil, 0, 0, pendingIO{}, ErrReadBeyondWP
	}
	if d.cfg.DiscardData || zo.data == nil || off+nSectors > zo.wp {
		// Unmaterialized payloads and full-zone tails beyond the write
		// pointer (which read as zeroes) take the copying path.
		return nil, 0, 0, pendingIO{}, ErrZCUnavailable
	}

	ss := int64(d.cfg.SectorSize)
	d.hostReadBytes += nSectors * ss
	rerr := d.readFaultLocked(sector, nSectors)

	now := d.clk.Now()
	occ := d.slowLocked(d.cfg.ReadOpOverhead + d.xferTime(int(nSectors)*int(ss), d.cfg.ReadBandwidth))
	markPipe(sp, d.readBusy, now)
	media := reservePipe(&d.readBusy, now, occ)
	sp.MarkAt(obs.PhaseMedia, media)
	done := media + d.cfg.ReadLatency
	zo.lent = true // the buffer now has outside readers: never recycle it
	return zo.data[off*ss : (off+nSectors)*ss], z, zo.zcSeq, pendingIO{at: done, err: rerr, fuaZ: -1}, nil
}

// ZCValid reports whether a zero-copy view pinned at (zone, seq) still
// reflects the zone's content.
func (d *Device) ZCValid(z int, seq uint64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return !d.failed && z >= 0 && z < len(d.zones) && d.zones[z].zcSeq == seq
}

// ZCSeq returns zone z's current zc sequence.
func (d *Device) ZCSeq(z int) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if z < 0 || z >= len(d.zones) {
		return 0
	}
	return d.zones[z].zcSeq
}
