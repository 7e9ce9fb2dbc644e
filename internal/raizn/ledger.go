package raizn

import (
	"sync"

	"raizn/internal/obs"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// The durability ledger answers the one question the FUA/flush path asks
// (paper §5.3, Fig. 6): which devices must be flushed before this logical
// zone's data is power-loss durable? It holds, per device, a submit
// sequence and the newest flush; and per logical zone and device, the
// sub-IOs of that zone which nothing has persisted yet. See DESIGN.md,
// "Durability ledger", for the invariants.

// devLedger orders one device slot's sub-IOs against its flushes.
type devLedger struct {
	mu       sync.Mutex
	seq      uint64         // submit sequence: bumped after every sub-IO handed to the device
	dirty    uint64         // seq of the newest sub-IO that only a flush persists (non-FUA)
	flushSeq uint64         // the newest submitted flush covers every sub-IO with seq <= flushSeq
	flushFut *vclock.Future // that flush's completion; nil once observed complete
	flushed  uint64         // seq covered by flushes known to have completed
	retired  []uint64       // per metadata zone: sub-IOs there with seq <= this are dead (retire)
}

// submitted records a sub-IO that has just been handed to the device and
// returns its sequence. The bump comes after the device call and a flush
// reads seq before its device call, so a flush whose flushSeq reaches a
// sub-IO's seq was submitted after that sub-IO. Bumping late, or twice for
// one sub-IO, only makes it look newer, which is the safe direction.
func (ld *devLedger) submitted(fua bool) uint64 {
	ld.mu.Lock()
	ld.seq++
	s := ld.seq
	if !fua {
		ld.dirty = s
	}
	ld.mu.Unlock()
	return s
}

// retire records that the device's mdZone-th metadata zone was rolled out
// and its roll-over's FUA checkpoint is durable: that checkpoint re-logged
// whatever the zone's records protected, so no logical zone owes them a
// flush any more (dropRetired).
func (ld *devLedger) retire(mdZone int) {
	ld.mu.Lock()
	ld.retired[mdZone] = ld.seq
	ld.mu.Unlock()
}

// dropRetired frees the marks of zm that sit in a retired metadata zone.
func (ld *devLedger) dropRetired(zm *zoneMarks, lt *layout) {
	for i := range zm.marks {
		m := &zm.marks[i]
		if m.end == 0 {
			continue
		}
		mdZone := int((m.end-1)/lt.physZoneSize) - lt.numZones
		if mdZone < 0 || mdZone >= len(ld.retired) {
			continue
		}
		ld.mu.Lock()
		if m.seq <= ld.retired[mdZone] {
			m.end = 0
		}
		ld.mu.Unlock()
	}
}

// zoneMarkSlots bounds the physical zones of one device in which a logical
// zone tracks unpersisted sub-IOs separately: its data zone, the two
// metadata logs and a partial-parity pool zone.
const zoneMarkSlots = 4

// zoneMark is the newest non-self-persisting sub-IO a logical zone has in
// one physical zone of one device.
type zoneMark struct {
	end int64  // absolute device sector one past the sub-IO; 0 = free slot
	seq uint64 // its device submit sequence
}

// zoneMarks is what a logical zone still owes one device. Guarded by the
// logical zone's lock.
type zoneMarks struct {
	marks [zoneMarkSlots]zoneMark
	spill uint64 // seq of marks evicted for want of a slot: only a flush covers them
}

// note records a sub-IO of the zone ending at absolute device sector end.
// A non-FUA sub-IO becomes (or advances) the mark of its physical zone. A
// FUA sub-IO persists its physical zone's prefix through end when it
// completes, so it retires a mark at or below end; whoever relies on that
// waits for the sub-IO (the issuing write's completion is chained through
// logicalZone.lastDurable).
func (zm *zoneMarks) note(end int64, seq uint64, fua bool, zoneSize int64) {
	pz := (end - 1) / zoneSize
	slot := -1
	for i := range zm.marks {
		m := &zm.marks[i]
		if m.end == 0 {
			slot = i
			continue
		}
		if (m.end-1)/zoneSize != pz {
			continue
		}
		switch {
		case !fua:
			m.end, m.seq = max(m.end, end), seq
		case m.end <= end:
			m.end = 0
		}
		return
	}
	if fua {
		return
	}
	if slot < 0 {
		slot = 0
		for i := range zm.marks {
			if zm.marks[i].seq < zm.marks[slot].seq {
				slot = i
			}
		}
		zm.spill = max(zm.spill, zm.marks[slot].seq)
	}
	zm.marks[slot] = zoneMark{end: end, seq: seq}
}

// take returns the sequence a flush must cover to persist everything
// marked (0: nothing) and clears the marks: the caller arranges that flush
// and later durable writes of the zone wait for the caller.
func (zm *zoneMarks) take() uint64 {
	need := zm.spill
	for i := range zm.marks {
		if zm.marks[i].end != 0 {
			need = max(need, zm.marks[i].seq)
		}
	}
	if need != 0 {
		*zm = zoneMarks{}
	}
	return need
}

// noteSubIO records a data-zone sub-IO of lz just submitted to device dev.
// Caller holds lz.mu.
func (v *Volume) noteSubIO(lz *logicalZone, dev int, end int64, fua bool) {
	lz.led[dev].note(end, v.led[dev].submitted(fua), fua, v.lt.physZoneSize)
}

// coverDev returns the completion of a flush of device d (slot dev) that
// covers every sub-IO with sequence <= need — and, with all set, every
// non-FUA sub-IO submitted so far — or nil when completed flushes already
// do. A flush in flight that reaches far enough is joined instead of
// issuing a second one (joined reports that).
func (v *Volume) coverDev(sp *obs.Span, dev int, d *zns.Device, need uint64, all bool) (fut *vclock.Future, joined bool) {
	ld := &v.led[dev]
	ld.mu.Lock()
	defer ld.mu.Unlock()
	if f := ld.flushFut; f != nil && f.Done() {
		if f.Err() == nil {
			ld.flushed = max(ld.flushed, ld.flushSeq)
		}
		ld.flushFut = nil
	}
	if all {
		need = max(need, ld.dirty)
	}
	if need <= ld.flushed {
		return nil, false
	}
	if ld.flushFut != nil && need <= ld.flushSeq {
		return ld.flushFut, true
	}
	ld.flushSeq = ld.seq
	ld.flushFut = d.FlushSpan(sp.Child(obs.OpDevFlush, dev, 0, 0), nil)
	return ld.flushFut, false
}

// persistZoneLocked is the FUA dependency of Figure 6: it makes every
// sub-IO logical zone lz has published so far durable by flushing exactly
// the devices on which the zone has sub-IOs that neither a flush nor a FUA
// sub-IO of the same physical zone persists, and appends the flushes to
// futs for the caller to await. With volumeWide (Preflush) the dependency
// widens from this zone to every non-FUA sub-IO the volume has submitted.
// The marks are cleared, so the caller must chain later durable writes of
// the zone behind its own completion (lz.lastDurable). Caller holds lz.mu.
func (v *Volume) persistZoneLocked(sp *obs.Span, lz *logicalZone, volumeWide bool, futs []subIO) []subIO {
	tbl := v.loadDevs()
	for dev := range lz.led {
		v.led[dev].dropRetired(&lz.led[dev], v.lt)
		need := lz.led[dev].take()
		if need == 0 && !volumeWide {
			continue
		}
		d := tbl.devs[dev]
		if d == nil {
			continue // failed: the surviving devices carry the zone
		}
		fut, joined := v.coverDev(sp, dev, d, need, volumeWide)
		if fut == nil {
			continue
		}
		if joined {
			v.stats.fuaFlushesJoined.Add(1)
		} else {
			v.stats.fuaFlushes.Add(1)
		}
		futs = append(futs, subIO{dev: dev, fut: fut})
	}
	return futs
}

// publishWrite is the last step of a write's submit: with every sub-IO
// issued, it records the metadata appends issuePendingMD made for pending
// in the ledger and, for a durable (FUA/Preflush) write — result is its
// completion future — arranges the flushes the zone still needs,
// concurrently with the write's own sub-IOs futs. The durable write must
// complete only after every returned sub-IO and after prev, the zone's
// previous durable write (nil: none in flight).
func (v *Volume) publishWrite(sp *obs.Span, lz *logicalZone, pending []pendingMD, futs []subIO, flags zns.Flag, result *vclock.Future) ([]subIO, *vclock.Future) {
	lz.mu.Lock()
	v.publishLocked(lz, pending, flags&zns.FUA != 0)
	var prev *vclock.Future
	if result != nil {
		// Writes that have submitted but not yet published may still owe
		// the ledger a relocation or partial-parity append.
		for lz.unpublished > 0 {
			lz.cond.Wait()
		}
		futs = v.persistZoneLocked(sp, lz, flags&zns.Preflush != 0, futs)
		prev, lz.lastDurable = lz.lastDurable, result
	}
	lz.mu.Unlock()
	return futs, prev
}

// publishLocked enters the metadata appends issuePendingMD made for
// pending in lz's ledger and ends the unpublished span of the writer that
// made them. Caller holds lz.mu.
func (v *Volume) publishLocked(lz *logicalZone, pending []pendingMD, fua bool) {
	for i := range pending {
		if p := &pending[i]; p.end > 0 {
			lz.led[p.dev].note(p.end, v.led[p.dev].submitted(fua), fua, v.lt.physZoneSize)
		}
	}
	lz.unpublished--
	if lz.unpublished == 0 {
		lz.cond.Broadcast()
	}
}

// writeDurable finishes a durable write whose sub-IOs and flushes have
// completed: it waits for the zone's previous durable write and publishes
// the derived persisted write pointer.
func (v *Volume) writeDurable(lz *logicalZone, end int64, prev, result *vclock.Future) error {
	if prev != nil {
		if err := prev.Wait(); err != nil {
			return err
		}
	}
	lz.mu.Lock()
	// The zone may have been reset while the write was in flight.
	lz.persistedWP = max(lz.persistedWP, min(end, lz.submittedWP))
	if lz.lastDurable == result {
		lz.lastDurable = nil
	}
	lz.mu.Unlock()
	return nil
}
