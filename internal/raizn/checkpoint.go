package raizn

import (
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// checkpointRecords produces the live metadata records of the given kind
// for device dev, serialized from memory — the metadata garbage
// collector's input (paper Fig. 4: "the garbage collector checkpoints any
// valid in-memory metadata to the swap zone, and does not read any logs
// from SSD").
func (v *Volume) checkpointRecords(dev int, kind mdKind) []*record {
	var out []*record
	switch kind {
	case mdGeneral:
		// Superblock.
		sb := superblock{
			version:   1,
			arrayID:   v.arrayID,
			numDev:    uint32(v.lt.n),
			devIndex:  uint32(dev),
			su:        v.lt.su,
			physZones: uint32(v.lt.numZones + v.lt.mdZones + v.lt.ppZones),
			mdZones:   uint32(v.lt.mdZones),
		}
		out = append(out, &record{typ: recSuperblock, gen: v.nextMDSeq(), inline: sb.encode()})

		// Generation counters.
		v.mu.Lock()
		gens, seq0 := v.snapshotGensLocked()
		pendingWALs := make(map[int]uint64, len(v.pendingWALs))
		for z, g := range v.pendingWALs {
			pendingWALs[z] = g
		}
		v.mu.Unlock()
		for b := range (len(gens) + gensPerBlock - 1) / gensPerBlock {
			out = append(out, &record{
				typ:    recGenCounters,
				gen:    seq0 + uint64(b),
				inline: encodeGenBlock(b, gens),
			})
		}

		// In-flight zone-reset WALs that are still authoritative.
		for z, g := range pendingWALs {
			if g == gens[z] {
				out = append(out, &record{
					typ:      recResetWAL,
					startLBA: v.lt.zoneStart(z),
					endLBA:   v.lt.zoneStart(z) + v.lt.zoneSectors(),
					gen:      g,
					inline:   encodeResetWAL(z),
				})
			}
		}

		// Relocated fragments whose payload lives on this device.
		v.relocMu.Lock()
		for z, list := range v.reloc {
			for _, e := range list {
				if e.dev != dev {
					continue
				}
				out = append(out, &record{
					typ: recRelocData, startLBA: e.startLBA, endLBA: e.endLBA,
					gen: gens[z], payload: e.data,
				})
			}
		}
		for z, m := range v.parityReloc {
			for _, e := range m {
				if e.dev != dev {
					continue
				}
				out = append(out, &record{
					typ: recRelocParity, startLBA: e.startLBA, endLBA: e.endLBA,
					gen: gens[z], payload: e.data,
				})
			}
		}
		v.relocMu.Unlock()

		// Stripe-unit checksum tables of the zones this device persists.
		out = append(out, v.checksumCheckpointRecords(dev)...)

		// Latest flight-recorder black box: forensic cargo that must
		// survive metadata GC and mount-time consolidation. Copied under
		// v.mu because PersistBlackBox reuses the backing slice.
		v.mu.Lock()
		if len(v.blackBox) > 0 {
			out = append(out, &record{
				typ:      recFlightBox,
				startLBA: int64(len(v.blackBox)),
				gen:      v.blackBoxGen,
				payload:  append([]byte(nil), v.blackBox...),
			})
		}
		v.mu.Unlock()

	case mdParity:
		// Partial parity for every in-progress stripe whose parity this
		// device will hold, copied from the stripe buffers ("the
		// latter of which is calculated by XOR'ing the contents of the
		// stripe buffer of each open logical zone", §4.3).
		//
		// NOTE: callers must not hold any zone lock (metadata appends
		// are issued outside zone locks precisely so this is safe).
		for z, lz := range v.zones {
			lz.mu.Lock()
			for s, buf := range lz.active {
				if v.lt.parityDev(z, s) != dev || buf.fill == 0 {
					continue
				}
				regions, nreg := v.lt.intraRegions(0, buf.fill)
				img := v.parityImageLocked(buf, regions[:nreg])
				out = append(out, &record{
					typ:      recPartialParity,
					startLBA: v.lt.stripeStart(z, s),
					endLBA:   v.lt.stripeStart(z, s) + buf.fill,
					gen:      v.Generation(z),
					payload:  img,
				})
			}
			lz.mu.Unlock()
		}
	}
	return out
}

// consolidateMetadata rewrites every device's metadata zones from the
// in-memory state recovered at mount, re-establishing the zone roles
// (general / partial parity / swap). It never resets a zone before its
// live content is durably re-checkpointed elsewhere, so a crash at any
// point — of the run before or of this recovery — leaves a complete copy:
//
//  1. Take an empty metadata zone R1 (emptyMDZone makes one when a crash
//     inside a roll-over left none).
//  2. Write the general checkpoint into R1, durable by its last record's FUA.
//  3. Reset every other zone holding only general records (now duplicates).
//  4. Write the partial-parity checkpoint into an empty zone R2 the same
//     way, then reset the remaining non-empty metadata zones.
func (v *Volume) consolidateMetadata(logs []*mdLog) error {
	for dev := range v.devs {
		d := v.devs[dev]
		if d == nil {
			continue
		}
		if err := v.consolidateDevice(dev, d, logs[dev]); err != nil {
			return err
		}
	}
	return nil
}

type mdZoneInfo struct {
	phys       int
	empty      bool
	hasGeneral bool
	hasParity  bool
}

// classifyMDZones says, from the device's zone report and the records a
// read of its metadata zones found, which zones are empty and which kinds
// of record each holds. It issues no command.
func classifyMDZones(d *zns.Device, lt *layout, recs []record) []mdZoneInfo {
	infos := make([]mdZoneInfo, lt.mdZones)
	for i := range infos {
		z := lt.mdZoneIndex(i)
		zd := d.Zone(z)
		infos[i] = mdZoneInfo{
			phys:  z,
			empty: zd.WP == d.ZoneStart(z) && zd.State != zns.ZoneFull,
		}
	}
	for i := range recs {
		if zi := int(recs[i].pba/lt.physZoneSize) - lt.numZones; zi >= 0 && zi < len(infos) {
			parity := kindOf(recs[i].typ) == mdParity
			infos[zi].hasParity = infos[zi].hasParity || parity
			infos[zi].hasGeneral = infos[zi].hasGeneral || !parity
		}
	}
	return infos
}

func (v *Volume) consolidateDevice(dev int, d *zns.Device, log *mdLog) error {
	// A roll-over during the mount must finish its reclaim before the
	// zones change hands.
	if m := v.md[dev]; m != nil {
		if err := m.quiesce(); err != nil {
			return err
		}
	}
	// The zones are classified from Mount's read of them: nothing since
	// appends metadata (WAL resets, repairs and compaction write data
	// zones). Should an append or a reset move a zone's fill, read again.
	for i, buf := range log.bufs {
		if z := v.lt.mdZoneIndex(i); d.Zone(z).WP-d.ZoneStart(z) != int64(len(buf)/v.sectorSize) {
			log = readMDZones(d, v.lt, v.sectorSize)
			if err := log.wait(); err != nil {
				return err
			}
			break
		}
	}
	infos := classifyMDZones(d, v.lt, log.recs)
	reset := func(i int) error {
		if err := d.ResetZone(infos[i].phys).Wait(); err != nil {
			return err
		}
		infos[i] = mdZoneInfo{phys: infos[i].phys, empty: true}
		return nil
	}

	// Steps 1-2: general checkpoint into an empty zone R1.
	r1, err := v.emptyMDZone(dev, d, infos, -1, reset)
	if err != nil {
		return err
	}
	if err := v.writeCheckpoint(d, infos[r1].phys, dev, mdGeneral); err != nil {
		return err
	}

	// Step 3: reset every other zone with only general records (a zone
	// checkpointed in place also carries partial parity; it goes last).
	for i, inf := range infos {
		if i != r1 && inf.hasGeneral && !inf.hasParity {
			if err := reset(i); err != nil {
				return err
			}
		}
	}

	// Step 4: partial-parity checkpoint into an empty zone R2, then clear
	// everything else.
	r2, err := v.emptyMDZone(dev, d, infos, r1, reset)
	if err != nil {
		return err
	}
	if err := v.writeCheckpoint(d, infos[r2].phys, dev, mdParity); err != nil {
		return err
	}
	for i, inf := range infos {
		if i != r1 && i != r2 && !inf.empty {
			if err := reset(i); err != nil {
				return err
			}
		}
	}

	// Install the recovered roles.
	m := newMDManager(v, dev)
	m.active[mdGeneral] = infos[r1].phys
	m.active[mdParity] = infos[r2].phys
	m.swap = m.swap[:0]
	for i, inf := range infos {
		if i != r1 && i != r2 {
			m.swap = append(m.swap, inf.phys)
		}
	}
	v.mu.Lock()
	v.md[dev] = m
	v.publishDevTableLocked()
	v.mu.Unlock()
	return nil
}

// emptyMDZone returns the index of an empty metadata zone other than keep.
// When there is none — with three zones, after a crash inside a roll-over
// window: the old zone not yet reset, foreground records already behind
// the checkpoint in the new one — it makes one without ever holding the
// only copy of anything in memory: both checkpoints are appended in place
// to the non-full zone (other than keep) with the most room, each durable
// by its last record's FUA, which turns every other zone into a duplicate,
// and those are reset. A crash before that leaves the same state with less
// room; after it, a state the next mount handles the same way.
func (v *Volume) emptyMDZone(dev int, d *zns.Device, infos []mdZoneInfo, keep int, reset func(int) error) (int, error) {
	for i, inf := range infos {
		if i != keep && inf.empty {
			return i, nil
		}
	}
	t, room := -1, int64(0)
	for i, inf := range infos {
		if free := mdZoneRoom(d, inf.phys); i != keep && free > room {
			t, room = i, free
		}
	}
	if t == -1 {
		return -1, errMDFull
	}
	futs := v.issueCheckpoint(d, infos[t].phys, dev, mdGeneral)
	futs = append(futs, v.issueCheckpoint(d, infos[t].phys, dev, mdParity)...)
	if err := vclock.WaitAll(futs...); err != nil {
		return -1, err
	}
	infos[t].hasGeneral, infos[t].hasParity = true, true
	empty := -1
	for i := len(infos) - 1; i >= 0; i-- {
		if i == t || i == keep {
			continue
		}
		if err := reset(i); err != nil {
			return -1, err
		}
		empty = i
	}
	return empty, nil
}

// mdZoneRoom returns how many more sectors fit in physical zone z.
func mdZoneRoom(d *zns.Device, z int) int64 {
	zd := d.Zone(z)
	if zd.State == zns.ZoneFull {
		return 0
	}
	return d.Config().ZoneCap - (zd.WP - d.ZoneStart(z))
}

// issueCheckpoint appends the checkpoint records of one kind into the
// given physical zone without waiting, the last one FUA: a FUA append
// persists its zone's prefix, so once every returned future has completed
// the whole checkpoint is durable, with no device flush. A record that does
// not fit surfaces as that append's error; with nothing live to checkpoint
// there is nothing to wait for. Once a general checkpoint is durable, the
// checksum rows it carries leave their zones' pending runs.
func (v *Volume) issueCheckpoint(d *zns.Device, phys int, dev int, kind mdKind) []*vclock.Future {
	recs := v.checkpointRecords(dev, kind)
	futs := make([]*vclock.Future, len(recs))
	for i, r := range recs {
		r.typ |= recCheckpoint
		buf := r.encode(v.sectorSize)
		var flags zns.Flag
		if i == len(recs)-1 {
			flags = zns.FUA
		}
		_, futs[i] = d.Append(phys, buf, flags)
		sectors := int64(len(buf) / v.sectorSize)
		v.accountMDBytes(r.typ, 1, sectors-1)
		v.recordMDEvent(dev, phys, r.typ, 1, sectors-1)
	}
	if kind == mdGeneral {
		whenAll(futs, func(err error) {
			if err == nil {
				v.checksumsCheckpointed(recs)
			}
		})
	}
	return futs
}

// writeCheckpoint issues the checkpoint of one kind into the given
// physical zone and waits until it is durable.
func (v *Volume) writeCheckpoint(d *zns.Device, phys int, dev int, kind mdKind) error {
	return vclock.WaitAll(v.issueCheckpoint(d, phys, dev, kind)...)
}
