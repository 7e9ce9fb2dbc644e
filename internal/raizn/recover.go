package raizn

import (
	"bytes"
	"fmt"

	"raizn/internal/parity"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// Mount assembles a previously created RAIZN array from the available
// devices and replays its metadata (§4.3, §5). Devices may be passed in
// any order; their array positions are recovered from the superblocks. A
// single missing device is tolerated: the volume mounts degraded.
//
// cfg must carry the StripeUnitSectors the array was created with; it and
// the metadata zone count are validated against the superblocks.
func Mount(clk *vclock.Clock, devs []*zns.Device, cfg Config) (*Volume, error) {
	cfg = cfg.withDefaults()
	if len(devs) == 0 {
		return nil, ErrNotEnoughDevs
	}

	// Phase 1: read every device's metadata zones at once; each device's
	// newest superblock gives its array position.
	logs := make([]*mdLog, len(devs))
	for i, d := range devs {
		if d != nil {
			logs[i] = readMDZones(d, deviceLayout(d.Config(), cfg), d.Config().SectorSize)
		}
	}
	var ref *superblock
	var ordered []*zns.Device
	var ordLogs []*mdLog
	for i, l := range logs {
		if l == nil {
			continue
		}
		if err := l.wait(); err != nil {
			return nil, err
		}
		var best *record
		for j := range l.recs {
			if r := &l.recs[j]; r.typ.base() == recSuperblock && (best == nil || r.gen > best.gen) {
				best = r
			}
		}
		if best == nil {
			return nil, fmt.Errorf("raizn: device has no superblock")
		}
		sb, ok := decodeSuperblock(best.inline)
		if !ok {
			return nil, ErrInconsistent
		}
		if ref == nil {
			ref, ordered, ordLogs = &sb, make([]*zns.Device, sb.numDev), make([]*mdLog, sb.numDev)
		}
		if sb.arrayID != ref.arrayID || sb.numDev != ref.numDev || sb.su != cfg.StripeUnitSectors || sb.mdZones != metadataZones {
			return nil, fmt.Errorf("raizn: device superblock mismatch: %w", ErrInconsistent)
		}
		if int(sb.devIndex) >= len(ordered) || ordered[sb.devIndex] != nil {
			return nil, ErrInconsistent
		}
		ordered[sb.devIndex], ordLogs[sb.devIndex] = devs[i], l
	}
	if ref == nil {
		return nil, ErrNotEnoughDevs
	}
	missing := -1
	for i, d := range ordered {
		if d == nil {
			if missing >= 0 {
				return nil, ErrNotEnoughDevs // two failures
			}
			missing = i
		}
	}

	// Phase 2: build the volume and replay metadata.
	v, err := newVolume(clk, ordered, cfg)
	if err != nil {
		return nil, err
	}
	v.arrayID = ref.arrayID
	if missing >= 0 {
		v.degraded = missing
	}
	if err := v.recover(ordLogs); err != nil {
		return nil, err
	}
	return v, nil
}

// recover replays the metadata logs and repairs every logical zone (paper
// §4.3 "zone descriptors", §5.1, §5.2) in three steps: gather reads what
// the devices hold about each zone, planZone (plan.go) decides from that
// evidence alone, and apply issues the plans' device commands. logs, by
// array slot, is Mount's read of the metadata zones, for the whole mount.
func (v *Volume) recover(logs []*mdLog) error {
	ev, walOrder, cs, err := v.gather(logs)
	if err != nil {
		return err
	}
	plans := make([]zonePlan, len(ev))
	for z := range ev {
		plans[z] = planZone(v.lt, ev[z])
	}

	// Finish the resets a crash interrupted, in the order their WALs were
	// found (§5.2).
	for _, z := range walOrder {
		if !plans[z].reset {
			continue
		}
		var futs []subIO
		for i, d := range v.devs {
			if d != nil {
				futs = append(futs, subIO{dev: i, fut: d.ResetZone(z)})
			}
		}
		if err := v.awaitSubIOs(futs); err != nil {
			return err
		}
	}
	for z := range plans {
		if err := v.applyZone(v.zones[z], &plans[z]); err != nil {
			return err
		}
	}

	// Replay stripe-unit checksum tables. The generation counters are
	// final now, so stale records (zone reset since the record was
	// written) drop out; coverage is clamped to the complete stripes
	// below each recovered write pointer.
	for i := range cs {
		v.applyChecksumRecord(&cs[i])
	}
	for z := 0; z < v.lt.numZones; z++ {
		v.clampChecksums(z, v.zones[z].wp/v.lt.stripeSectors())
	}
	// Compact zones whose relocation count passed the threshold (§5.2).
	if err := v.compactRemappedZones(); err != nil {
		return err
	}
	// Roll the metadata logs over: the checkpoints re-log everything live
	// (the generation counters bumped above included), and reclaim resets
	// every zone they make redundant. Nothing above appends metadata.
	if err := v.rollMount(logs); err != nil {
		return err
	}
	// Everything live — including partial parity for in-progress stripes
	// — is re-checkpointed in the metadata zones now; the zraid PP zones
	// are stale and start fresh.
	return v.slots.Format()
}

// gather collects the records of every live device's log and scans the
// zraid slot tables once. It restores the generation counters, the
// metadata sequence number and the newest flight-recorder box, and returns
// per logical zone its evidence (records of the zone's current generation
// only), the zones with a valid reset WAL in the order the first was
// found, and the checksum records for replay once the generations are
// final. It issues no metadata read of its own.
func (v *Volume) gather(logs []*mdLog) (ev []zoneEvidence, walOrder []int, cs []record, err error) {
	var all []record
	for i, l := range logs {
		if l == nil {
			continue
		}
		for j := range l.recs {
			l.recs[j].dev = i
		}
		all = append(all, l.recs...)
	}

	// Generation counters first: every other record's validity depends
	// on them. Per block the record with the highest sequence number is the
	// current one — not the largest counters, because Maintain zeroes them.
	newestGens := make(map[int]*record)
	for i := range all {
		r := &all[i]
		v.mdSeq = max(v.mdSeq, r.gen) // advance past every persisted sequence number
		if r.typ.base() != recGenCounters {
			continue
		}
		b, _, ok := decodeGenBlock(r.inline)
		if ok && b >= 0 && b <= len(v.gen)/gensPerBlock && (newestGens[b] == nil || r.gen > newestGens[b].gen) {
			newestGens[b] = r
		}
	}
	for blockIdx, r := range newestGens {
		_, gens, _ := decodeGenBlock(r.inline)
		lo := blockIdx * gensPerBlock
		for k := 0; k < gensPerBlock && k < len(gens) && lo+k < len(v.gen); k++ {
			v.gen[lo+k] = gens[k]
		}
	}

	ev = make([]zoneEvidence, v.lt.numZones)
	for z := range ev {
		e := &ev[z]
		e.zone, e.sectorSize = z, int64(v.sectorSize)
		e.fills, e.finished = make([]int64, v.lt.n), make([]bool, v.lt.n)
		for i := range v.devs {
			e.fills[i], e.finished[i] = v.physFill(i, z)
		}
	}
	// current reports whether a record of zone z and generation gen is
	// of the zone's current incarnation.
	current := func(z int, gen uint64) bool { return z >= 0 && z < v.lt.numZones && gen == v.gen[z] }
	// addPP converts a partial-parity record to its stripe-relative
	// image. A record that ends past its stripe matches no stripe and is
	// dropped.
	stripeSec := v.lt.stripeSectors()
	addPP := func(z int, start, end int64, payload []byte) {
		s := (start - v.lt.zoneStart(z)) / stripeSec
		lo := v.lt.stripeStart(z, s)
		if end-lo <= stripeSec {
			ev[z].pp = append(ev[z].pp, ppImage{stripe: s, a: start - lo, b: end - lo, payload: payload})
		}
	}
	for i := range all {
		r := all[i]
		switch r.typ.base() {
		case recResetWAL:
			if z, ok := decodeResetWAL(r.inline); ok && current(z, r.gen) {
				if ev[z].resetWALs == 0 {
					walOrder = append(walOrder, z)
				}
				ev[z].resetWALs++
			}
		case recPartialParity:
			if z := v.lt.zoneOf(r.startLBA); current(z, r.gen) {
				addPP(z, r.startLBA, r.endLBA, r.payload)
			}
		case recRelocData, recRelocParity:
			if z := v.lt.zoneOf(r.startLBA); current(z, r.gen) {
				ev[z].relocs = append(ev[z].relocs, r)
			}
		case recChecksums:
			// Generation validity is checked at replay, after the plans'
			// generation bumps.
			cs = append(cs, r)
		}
	}
	// Forensic cargo, not array state: keep the newest intact box in
	// memory so the mount's general checkpoint re-emits it — the mount's
	// roll-overs reset every older metadata zone, and the crash evidence
	// must survive the remount that follows the crash.
	if best := newestFlightBox(all); best != nil {
		v.blackBox = append([]byte(nil), best.payload[:best.startLBA]...)
		v.blackBoxGen = best.gen
	}

	// The zraid PP-zone slots (none on a logged array, whose records
	// surfaced in the metadata scan above).
	slotRecs, err := v.slots.Scan()
	if err != nil {
		return nil, nil, nil, err
	}
	for _, r := range slotRecs {
		if current(r.Zone, r.Gen) {
			addPP(r.Zone, r.StartLBA, r.EndLBA, r.Payload)
		}
	}
	return ev, walOrder, cs, nil
}

// physFill returns (fill sectors, finished) of physical zone z on device
// i, or (-1, false) when the device is missing.
func (v *Volume) physFill(i, z int) (int64, bool) {
	d := v.devs[i]
	if d == nil {
		return -1, false
	}
	zd := d.Zone(z)
	return zd.WP - d.ZoneStart(z), zd.State == zns.ZoneFull
}

// applyZone carries out logical zone lz's plan: the generation bump, the
// live relocation records, the repair writes in stripe order, the
// recovered descriptor and the tail stripe's buffer.
func (v *Volume) applyZone(lz *logicalZone, p *zonePlan) error {
	z := lz.idx
	v.gen[z] += p.genDelta
	for _, r := range p.relocs {
		v.addReloc(z, relocEntry{
			startLBA: r.startLBA, endLBA: r.endLBA,
			dev: r.dev, data: bytes.Clone(r.payload), // not the whole zone's read buffer
		}, r.typ.base() == recRelocParity, v.lt.stripeOf(r.startLBA))
	}
	if p.empty {
		v.dropRelocEntries(z)
	}
	lz.wp, lz.submittedWP = p.wp, p.wp // repairs reconstruct against it
	lz.persistedWP = p.wp              // post-crash, everything on media is durable
	for _, r := range p.repairs {
		u := r.unit
		if u < 0 {
			u = v.lt.d // the stripe's parity
		}
		if err := v.repairTail(z, r.stripe, u, r.from); err != nil {
			return err
		}
	}
	lz.remapped = p.remapped
	switch {
	case p.full:
		lz.state = zns.ZoneFull
	case p.wp == 0:
		lz.state = zns.ZoneEmpty
	default:
		lz.state = zns.ZoneClosed
	}
	if p.tail == nil {
		return nil
	}
	return v.rebuildStripeBuffer(lz, p.tail)
}

// repairTail rebuilds unit u of complete stripe s (the parity unit when
// u == d) from intra offset from on out of the other units, and writes it
// at the owning device's write pointer (§4.3: "rebuilding the missing
// stripe units using parity"; §5.2's torn parity).
func (v *Volume) repairTail(z int, s int64, u int, from int64) error {
	su, ss := v.lt.su, int64(v.sectorSize)
	img := make([]byte, (su-from)*ss)
	if err := v.reconstruct(z, s, u, from, su, img); err != nil {
		return err
	}
	d := v.devs[v.unitDevice(z, s, u)]
	if d == nil {
		return ErrInconsistent
	}
	return d.Write(int64(z)*v.lt.physZoneSize+s*su+from, img, 0).Wait()
}

// rebuildStripeBuffer reloads the partial tail stripe t into a stripe
// buffer: present units are read from their devices, a missing device's
// unit is the stripe's parity on media XOR every other unit over the
// offsets that parity rebuilds, and past them the partial-parity image
// XOR the surviving units' sectors the image holds (§5.1; those below its
// reach); the units are folded into the buffer in unit order.
func (v *Volume) rebuildStripeBuffer(lz *logicalZone, t *tailPlan) error {
	ss := int64(v.sectorSize)
	buf, err := v.stripeBufferLocked(lz, t.stripe, 0) // single-threaded during mount
	if err != nil {
		return err
	}
	fills := v.lt.unitFills(t.fill)
	units := make([][]byte, len(fills))
	var rs subReads
	for u, f := range fills {
		units[u] = make([]byte, f*ss)
		if f == 0 || u == t.missing {
			continue
		}
		if err := v.readUnitPiece(nil, lz.idx, t.stripe, u, 0, f, units[u], &rs, nil); err != nil {
			return err
		}
	}
	if err := v.awaitReads(rs.futs); err != nil {
		return err
	}
	if m := t.missing; m >= 0 {
		copy(units[m], t.img)
		for i := t.parity; i < t.recon; i++ {
			for u, f := range fills {
				if u != m && i < f && int64(u)*v.lt.su+i < t.reach[i] {
					parity.XORInto(units[m][i*ss:(i+1)*ss], units[u][i*ss:(i+1)*ss])
				}
			}
		}
		if err := v.rebuildFromParity(lz.idx, t.stripe, m, units[m][:t.parity*ss]); err != nil {
			return err
		}
	}
	for _, unit := range units {
		v.foldLocked(buf, unit)
	}
	return nil
}

// rebuildFromParity sets dst to intra offsets [0, len(dst)) of data unit u
// of stripe s, rebuilt from the parity on media and every other data unit,
// all of which hold those offsets (parityExtent): the stripe's data past
// the write pointer is read too.
func (v *Volume) rebuildFromParity(z int, s int64, u int, dst []byte) error {
	n := int64(len(dst)) / int64(v.sectorSize)
	if n == 0 {
		return nil
	}
	r := v.newReadJoin(nil, nil)
	r.fills = r.fills[:0]
	for range v.lt.d {
		r.fills = append(r.fills, n)
	}
	if err := v.submitReconstruct(nil, z, s, u, 0, n, r.fills, dst, false, &r.xr, &r.subReads); err != nil {
		return err
	}
	err := v.awaitReads(r.futs)
	v.putReadJoin(r)
	return err
}
