package raizn

import (
	"slices"

	"raizn/internal/obs"
	"raizn/internal/zns"
)

// ResetZone resets logical zone z: all constituent physical zones are
// erased and the zone returns to empty. Because the physical resets are
// not atomic as a group, RAIZN write-ahead logs the intent on two devices
// — the holder of the zone's first stripe unit and the holder of the
// first stripe's parity — before issuing any reset (§5.2). IO to the zone
// is blocked for the duration.
func (v *Volume) ResetZone(z int) error {
	if z < 0 || z >= v.lt.numZones {
		return ErrOutOfRange
	}
	if v.ReadOnly() {
		return ErrReadOnly
	}
	lz := v.zones[z]
	lz.mu.Lock()
	for lz.resetting {
		lz.cond.Wait()
	}
	if lz.state == zns.ZoneEmpty {
		lz.mu.Unlock()
		return nil
	}
	lz.resetting = true
	lz.mu.Unlock()

	sp := v.tracer.Begin(obs.OpReset, v.lt.zoneStart(z), 0)
	err := v.doResetZone(sp, lz)
	sp.End(err)

	lz.mu.Lock()
	lz.resetting = false
	lz.cond.Broadcast()
	lz.mu.Unlock()
	return err
}

func (v *Volume) doResetZone(sp *obs.Span, lz *logicalZone) error {
	z := lz.idx
	gen := v.Generation(z)

	// 1. Persist the reset intent on the two WAL devices. Device order
	// rotates per zone (via the parity rotation), spreading WAL write
	// amplification across the array.
	v.mu.Lock()
	v.pendingWALs[z] = gen
	v.mu.Unlock()
	var walFuts []subIO
	for _, dev := range []int{v.lt.dataDev(z, 0, 0), v.lt.parityDev(z, 0)} {
		if v.md[dev] == nil {
			continue // degraded: the surviving WAL copy suffices
		}
		rec := &record{
			typ:      recResetWAL,
			startLBA: v.lt.zoneStart(z),
			endLBA:   v.lt.zoneStart(z) + v.lt.zoneSectors(),
			gen:      gen,
			inline:   encodeResetWAL(z),
		}
		child := sp.Child(obs.OpMDAppend, dev, rec.startLBA, int64(len(rec.inline)))
		fut, _, err := v.md[dev].appendSpan(child, rec, zns.FUA)
		if err != nil {
			return err
		}
		walFuts = append(walFuts, subIO{dev: dev, fut: fut})
	}
	if err := v.awaitSubIOs(walFuts); err != nil {
		return err
	}
	v.fireHook("raizn.reset.wal", obs.SrcLogical, z, int64(gen))

	// 2. Reset every physical zone. The WAL ensures a partial group of
	// resets is finished on the next mount.
	var futs []subIO
	for i := range v.devs {
		if d := v.dev(i); d != nil {
			child := sp.Child(obs.OpDevReset, i, d.ZoneStart(z), 0)
			futs = append(futs, subIO{dev: i, fut: d.ResetZoneSpan(child, nil, z)})
		}
	}
	if err := v.awaitSubIOs(futs); err != nil {
		return err
	}
	v.fireHook("raizn.reset.phys", obs.SrcLogical, z, int64(gen))

	// 3. Advance the generation counter, invalidating every metadata
	// record for the old generation (including the WAL entries), and
	// persist it on all devices.
	v.mu.Lock()
	v.gen[z]++
	delete(v.pendingWALs, z)
	v.mu.Unlock()
	if err := v.persistGenCounters(); err != nil {
		return err
	}
	v.fireHook("raizn.reset.done", obs.SrcLogical, z, int64(gen+1))

	// 4. Reset the in-memory zone state. The generation bump made every
	// partial-parity image for the zone stale; tell the slot table so
	// zraid slots become reclaimable (no-op for logged records, which the
	// gen filter invalidates).
	v.slots.ZoneReset(z)
	v.dropRelocEntries(z)
	v.clearZoneChecksums(z)
	lz.mu.Lock()
	v.mu.Lock() // a zone's state changes under both locks (ReplaceDevice)
	if lz.state == zns.ZoneOpen {
		v.openCount--
	}
	lz.state = zns.ZoneEmpty
	open, newGen := int64(v.openCount), int64(v.gen[z])
	v.mu.Unlock()
	v.jrn.Record(obs.EvZoneReset, obs.SrcLogical, z, lz.wp, newGen, open, open)
	lz.wp = 0
	lz.submittedWP = 0
	lz.persistedWP = 0
	// The physical zones are empty and the new generation is on media
	// (persistGenCounters, FUA): the zone owes no device anything.
	clear(lz.led)
	lz.lastDurable = nil
	lz.remapped = false
	for s, b := range lz.active {
		b.stripe = -1
		b.fill = 0
		lz.free = append(lz.free, b)
		delete(lz.active, s)
	}
	lz.cond.Broadcast()
	lz.mu.Unlock()
	v.stats.zoneResets.Add(1)
	return nil
}

// persistGenCounters appends the generation-counter blocks to the general
// metadata zone of every live device (Table 1: persisted on all devices),
// FUA: a reset is over only when no power cut can bring the old generation
// back, or mount would find the reset WAL current again and finish the
// reset over whatever the new generation has made durable since.
func (v *Volume) persistGenCounters() error {
	v.mu.Lock()
	gens, seq0 := v.snapshotGensLocked()
	v.mu.Unlock()
	var futs []subIO
	for b := range (len(gens) + gensPerBlock - 1) / gensPerBlock {
		inline := encodeGenBlock(b, gens)
		seq := seq0 + uint64(b)
		for i := range v.devs {
			if v.md[i] == nil {
				continue
			}
			fut, _, err := v.md[i].append(&record{
				typ:    recGenCounters,
				gen:    seq,
				inline: inline,
			}, zns.FUA)
			if err != nil {
				return err
			}
			futs = append(futs, subIO{dev: i, fut: fut})
		}
	}
	return v.awaitSubIOs(futs)
}

// snapshotGensLocked copies the generation counters and reserves one
// metadata sequence number per counter block, returning the first. Both
// happen under v.mu, which the caller holds: mount trusts the counter
// record with the highest sequence number, so a later number must never
// carry an older snapshot.
func (v *Volume) snapshotGensLocked() (gens []uint64, seq0 uint64) {
	gens = append([]uint64(nil), v.gen...)
	seq0 = v.mdSeq + 1
	v.mdSeq += uint64((len(gens) + gensPerBlock - 1) / gensPerBlock)
	return gens, seq0
}

// dropRelocEntries discards the relocation state of zone z (its records
// become stale once the generation counter advances).
func (v *Volume) dropRelocEntries(z int) {
	v.relocMu.Lock()
	delete(v.reloc, z)
	delete(v.parityReloc, z)
	v.relocMu.Unlock()
}

// FinishZone transitions logical zone z to full without writing the rest
// of its capacity. If the tail stripe is partial, its parity-so-far is
// written to the parity unit first so the stripe stays reconstructable,
// then every physical zone is finished.
func (v *Volume) FinishZone(z int) error {
	if z < 0 || z >= v.lt.numZones {
		return ErrOutOfRange
	}
	if v.ReadOnly() {
		return ErrReadOnly
	}
	lz := v.zones[z]
	lz.mu.Lock()
	for lz.resetting {
		lz.cond.Wait()
	}
	if lz.state == zns.ZoneFull {
		lz.mu.Unlock()
		return nil
	}
	// Wait until the ledger has every metadata append of the zone's
	// writes before sealing.
	for lz.unpublished > 0 {
		lz.cond.Wait()
	}

	// Seal the partial tail stripe's parity: one plan entry, submitted as
	// a write's are, so a burned parity PBA is relocated (§5.2).
	ws := &writeState{v: v}
	stripeSec := v.lt.stripeSectors()
	if tail := lz.wp % stripeSec; tail != 0 {
		s := lz.wp / stripeSec
		if buf, ok := lz.active[s]; ok {
			ws.plan = append(ws.plan, plannedIO{
				dev: v.lt.parityDev(z, s), pba: v.lt.parityPBA(z, s), isParity: true, s: s,
				data: v.parityImageLocked(buf, []intraInterval{{0, min(buf.fill, v.lt.su)}}),
			})
			v.submitPlanLocked(ws, lz)
			delete(lz.active, s)
			buf.stripe = -1
			buf.fill = 0
			lz.free = append(lz.free, buf)
		}
	}
	// The sealed zone has no in-progress stripes: all PP state is dead.
	v.slots.ZoneReset(z)
	// Its checksum run is appended and flushed with its other metadata.
	ws.pending = v.takeRun(ws.pending, z, lz.submittedWP, true, nil)
	for i := range v.devs {
		if d := v.dev(i); d != nil {
			ws.futs = append(ws.futs, subIO{dev: i, fut: d.FinishZone(z)})
			// A device finish persists the zone's contents, like a FUA
			// sub-IO reaching the end of the physical zone.
			v.noteSubIO(lz, i, d.ZoneStart(z)+v.lt.physZoneCap, true)
		}
	}
	v.closeZoneSlot(lz)
	persisted := lz.wp
	if v.jrn.Enabled() {
		v.mu.Lock()
		open := int64(v.openCount)
		v.mu.Unlock()
		v.jrn.Record(obs.EvZoneFinish, obs.SrcLogical, z, persisted, 0, open, open)
	}
	lz.unpublished++
	lz.mu.Unlock()

	// What the finishes did not persist — relocated fragments and other
	// metadata appends of the zone — is flushed like a durable write's
	// dependencies, so the whole zone is durable when FinishZone returns.
	futs := v.issuePendingMD(nil, nil, ws.pending, ws.futs, 0)
	done := v.clk.NewFuture()
	futs, prev := v.publishWrite(nil, lz, ws.pending, futs, 0, done)
	err := v.awaitSubIOs(futs)
	if err == nil {
		err = v.writeDurable(lz, persisted, prev, done)
	}
	done.Complete(err)
	if err != nil {
		return err
	}
	v.fireHook("raizn.finish.done", obs.SrcLogical, z, persisted)
	return nil
}

// genCounterCeiling is the counter value at which Maintain zeroes every
// generation counter.
const genCounterCeiling = ^uint64(0) - 1

// Maintain performs the generation-counter maintenance operation (§4.3):
// it garbage collects every metadata zone, checkpointing live records: one
// round of rollRound per log kind, general first, on every live device at
// once. Counters are zeroed only when one has reached the ceiling, which
// 64-bit counters make effectively unreachable. They are zeroed before the
// garbage collection, so the checkpoints stamp every live record (partial
// parity, relocations, checksums) with the new generation, and the general
// checkpoint carries the zeroed counters under a newer sequence number than
// any counter record before it; mount takes the newest counter record, so
// the zeroed counters and those records survive a remount. The paper
// protects this rewrite with a WAL; here a crash between the zeroing and
// the last checkpoint is not covered.
func (v *Volume) Maintain() error {
	v.mu.Lock()
	if slices.Max(v.gen) >= genCounterCeiling {
		clear(v.gen)
		v.readOnly = false
	}
	v.mu.Unlock()
	ms := v.loadDevs().md
	for kind := range mdKinds {
		if _, err := v.rollRound(ms, kind, true, nil); err != nil {
			return err
		}
	}
	return nil
}
