package raizn

import (
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
// cfg must carry the same StripeUnitSectors and MetadataZones the array
// was created with (they are validated against the superblocks).
func Mount(clk *vclock.Clock, devs []*zns.Device, cfg Config) (*Volume, error) {
	cfg = cfg.withDefaults()
	if len(devs) == 0 {
		return nil, ErrNotEnoughDevs
	}

	// Phase 1: read superblocks to recover device order.
	type found struct {
		dev *zns.Device
		sb  superblock
	}
	var sbs []found
	for _, d := range devs {
		if d == nil {
			continue
		}
		recs, err := scanMDZones(d, deviceLayout(d.Config(), cfg), d.Config().SectorSize)
		if err != nil {
			return nil, err
		}
		var best *record
		for i := range recs {
			r := &recs[i]
			if r.typ.base() != recSuperblock {
				continue
			}
			if best == nil || r.gen > best.gen {
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
		sbs = append(sbs, found{dev: d, sb: sb})
	}
	if len(sbs) == 0 {
		return nil, ErrNotEnoughDevs
	}
	ref := sbs[0].sb
	ordered := make([]*zns.Device, ref.numDev)
	for _, f := range sbs {
		if f.sb.arrayID != ref.arrayID || f.sb.numDev != ref.numDev || f.sb.su != cfg.StripeUnitSectors {
			return nil, fmt.Errorf("raizn: device superblock mismatch: %w", ErrInconsistent)
		}
		if int(f.sb.devIndex) >= len(ordered) || ordered[f.sb.devIndex] != nil {
			return nil, ErrInconsistent
		}
		ordered[f.sb.devIndex] = f.dev
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
	if err := v.recover(); err != nil {
		return nil, err
	}
	return v, nil
}

// replayState collects the decoded metadata logs during recovery.
type replayState struct {
	resetWALs []record         // zone-reset intents
	pp        map[int][]record // logical zone -> partial parity logs
	reloc     []record         // relocated data fragments
	prel      []record         // relocated parity units
	cs        []record         // stripe-unit checksum tables
}

// recover replays metadata logs and repairs every logical zone
// (paper §4.3 "zone descriptors" and §5.2).
func (v *Volume) recover() error {
	st := &replayState{pp: make(map[int][]record)}

	// Scan all metadata zones of all live devices.
	var all []record
	for i, d := range v.devs {
		if d == nil {
			continue
		}
		recs, err := scanMDZones(d, v.lt, v.sectorSize)
		if err != nil {
			return err
		}
		for j := range recs {
			recs[j].dev = i
		}
		all = append(all, recs...)
	}

	// Generation counters first: every other record's validity depends
	// on them. Per block the record with the highest sequence number is the
	// current one — not the largest counters, because Maintain zeroes them.
	newestGens := make(map[int]*record)
	for i := range all {
		r := &all[i]
		if r.gen > v.mdSeq {
			v.mdSeq = r.gen // advance past every persisted sequence number
		}
		if r.typ.base() != recGenCounters {
			continue
		}
		blockIdx, _, ok := decodeGenBlock(r.inline)
		if !ok || blockIdx < 0 || blockIdx > len(v.gen)/gensPerBlock {
			continue
		}
		if prev := newestGens[blockIdx]; prev == nil || r.gen > prev.gen {
			newestGens[blockIdx] = r
		}
	}
	for blockIdx, r := range newestGens {
		_, gens, _ := decodeGenBlock(r.inline)
		lo := blockIdx * gensPerBlock
		for k := 0; k < gensPerBlock && k < len(gens) && lo+k < len(v.gen); k++ {
			v.gen[lo+k] = gens[k]
		}
	}

	// Sort the rest by type, dropping records whose generation counter
	// is stale (their logical zone was reset after they were written).
	for i := range all {
		r := all[i]
		switch r.typ.base() {
		case recResetWAL:
			z, ok := decodeResetWAL(r.inline)
			if ok && z >= 0 && z < v.lt.numZones && r.gen == v.gen[z] {
				st.resetWALs = append(st.resetWALs, r)
			}
		case recPartialParity:
			z := v.lt.zoneOf(r.startLBA)
			if z >= 0 && z < v.lt.numZones && r.gen == v.gen[z] {
				st.pp[z] = append(st.pp[z], r)
			}
		case recRelocData:
			z := v.lt.zoneOf(r.startLBA)
			if z >= 0 && z < v.lt.numZones && r.gen == v.gen[z] {
				st.reloc = append(st.reloc, r)
			}
		case recRelocParity:
			z := v.lt.zoneOf(r.startLBA)
			if z >= 0 && z < v.lt.numZones && r.gen == v.gen[z] {
				st.prel = append(st.prel, r)
			}
		case recChecksums:
			// Generation validity is re-checked at apply time, after the
			// reset-WAL and empty-zone bumps below.
			st.cs = append(st.cs, r)
		case recFlightBox:
			// Forensic cargo, not array state: keep the newest intact box
			// in memory so consolidateMetadata re-emits it — consolidation
			// rewrites every metadata zone, and the crash evidence must
			// survive the remount that follows the crash.
			if r.startLBA > 0 && int64(len(r.payload)) >= r.startLBA &&
				(v.blackBox == nil || r.gen > v.blackBoxGen) {
				v.blackBox = append([]byte(nil), r.payload[:r.startLBA]...)
				v.blackBoxGen = r.gen
			}
		}
	}

	// Merge the parity-persistence engine's own scan (zraid PP-zone
	// slots; nil for logged, whose records surfaced in the metadata scan
	// above). The same generation filter applies, and a later reset-WAL
	// application below invalidates engine records along with logged
	// ones.
	engRecs, err := v.eng.Scan()
	if err != nil {
		return err
	}
	for _, r := range engRecs {
		if r.Zone < 0 || r.Zone >= v.lt.numZones || r.Gen != v.gen[r.Zone] {
			continue
		}
		st.pp[r.Zone] = append(st.pp[r.Zone], record{
			typ:      recPartialParity,
			startLBA: r.StartLBA,
			endLBA:   r.EndLBA,
			gen:      r.Gen,
			payload:  r.Payload,
		})
	}

	// Apply valid zone-reset WALs: a logically non-empty zone with a
	// pending reset intent is re-reset (§5.2).
	genDirty := false
	for _, r := range st.resetWALs {
		z, _ := decodeResetWAL(r.inline)
		if v.zoneHasData(z) {
			var futs []subIO
			for i := range v.devs {
				if d := v.devs[i]; d != nil {
					futs = append(futs, subIO{dev: i, fut: d.ResetZone(z)})
				}
			}
			if err := v.awaitSubIOs(futs); err != nil {
				return err
			}
		}
		v.gen[z]++ // invalidates the WAL and all same-generation records
		genDirty = true
		delete(st.pp, z)
	}

	// Re-apply relocation records (skipping those invalidated above).
	for _, r := range st.reloc {
		z := v.lt.zoneOf(r.startLBA)
		if r.gen != v.gen[z] {
			continue
		}
		v.addReloc(z, relocEntry{
			startLBA: r.startLBA, endLBA: r.endLBA,
			dev: r.dev, pba: r.pba + 1, data: r.payload,
		}, false, 0)
	}
	for _, r := range st.prel {
		z := v.lt.zoneOf(r.startLBA)
		if r.gen != v.gen[z] {
			continue
		}
		s := v.lt.stripeOf(r.startLBA)
		v.addReloc(z, relocEntry{
			startLBA: r.startLBA, endLBA: r.endLBA,
			dev: r.dev, pba: r.pba + 1, data: r.payload,
		}, true, s)
	}

	// Repair every logical zone.
	for z := 0; z < v.lt.numZones; z++ {
		dirty, err := v.recoverZone(z, st.pp[z])
		if err != nil {
			return err
		}
		genDirty = genDirty || dirty
	}
	_ = genDirty

	// Replay stripe-unit checksum tables. The generation counters are
	// final now, so stale records (zone reset since the record was
	// written) drop out; coverage is clamped to the complete stripes
	// below each recovered write pointer.
	for i := range st.cs {
		v.applyChecksumRecord(&st.cs[i])
	}
	for z := 0; z < v.lt.numZones; z++ {
		v.clampChecksums(z, v.zones[z].wp/v.lt.stripeSectors())
	}
	// Compact zones whose relocation count passed the threshold (§5.2),
	// then consolidate the metadata zones: re-checkpoint everything live
	// (including the generation counters bumped above) and re-establish
	// the zone roles.
	if err := v.compactRemappedZones(); err != nil {
		return err
	}
	if err := v.consolidateMetadata(); err != nil {
		return err
	}
	// Everything live — including partial parity for in-progress stripes
	// — is re-checkpointed in the metadata zones now; the engine's own
	// persistence (the zraid PP zones) is stale and starts fresh.
	return v.eng.Format()
}

// zoneHasData reports whether any live physical zone of logical zone z
// holds data.
func (v *Volume) zoneHasData(z int) bool {
	for _, d := range v.devs {
		if d == nil {
			continue
		}
		zd := d.Zone(z)
		if zd.WP > d.ZoneStart(z) || zd.State == zns.ZoneFull {
			return true
		}
	}
	return false
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

// recoverZone derives logical zone z's state from the physical write
// pointers, repairing stripe holes with parity or partial-parity logs and
// truncating + flagging the zone when repair is impossible (§4.3 "zone
// descriptors", §5.1, §5.2). It returns whether generation counters were
// changed.
func (v *Volume) recoverZone(z int, ppLogs []record) (genDirty bool, err error) {
	lz := v.zones[z]
	fills := make([]int64, v.lt.n)
	finished := make([]bool, v.lt.n)
	allEmpty, allFinished := true, true
	for i := range v.devs {
		fills[i], finished[i] = v.physFill(i, z)
		if fills[i] > 0 || finished[i] {
			allEmpty = false
		}
		if fills[i] >= 0 && !finished[i] {
			allFinished = false
		}
	}

	if allEmpty {
		// Paper §4.3: empty zones get their generation bumped on mount,
		// invalidating any straggler metadata for the old incarnation.
		lz.state = zns.ZoneEmpty
		lz.wp, lz.submittedWP, lz.persistedWP = 0, 0, 0
		v.gen[z]++
		v.dropRelocEntries(z)
		return true, nil
	}

	su := v.lt.su
	stripeSec := v.lt.stripeSectors()

	// Walk stripes, accumulating the readable logical prefix.
	var wp int64
	truncated := false
	smax := int64(0)
	for i := range fills {
		if fills[i] < 0 {
			continue
		}
		if s := (fills[i] + su - 1) / su; s > smax {
			smax = s
		}
	}
	for s := int64(0); s < smax && !truncated; s++ {
		present := make([]int64, v.lt.d) // data sectors present per unit (-1 unknown)
		for u := 0; u < v.lt.d; u++ {
			dev := v.lt.dataDev(z, s, u)
			if fills[dev] < 0 {
				present[u] = -1
				continue
			}
			present[u] = clampI64(fills[dev]-s*su, 0, su)
		}
		pdev := v.lt.parityDev(z, s)
		q := int64(-1)
		if fills[pdev] >= 0 {
			q = clampI64(fills[pdev]-s*su, 0, su)
		}
		// Relocated parity counts as parity present.
		v.relocMu.Lock()
		if m := v.parityReloc[z]; m != nil {
			if e, ok := m[s]; ok {
				if pl := int64(len(e.data)) / int64(v.sectorSize); pl > q {
					q = pl
				}
			}
		}
		v.relocMu.Unlock()

		g, fixed, trunc, gerr := v.repairStripe(z, s, present, q, ppLogs, allFinished)
		if gerr != nil {
			return genDirty, gerr
		}
		_ = fixed
		wp += g
		if trunc || g < stripeSec {
			truncated = trunc
			// A short stripe ends the logical prefix.
			if !trunc {
				// Legitimate tail stripe: nothing after it by the
				// sequential-write rule; debris past it would have
				// been flagged by repairStripe.
			}
			break
		}
	}

	// Debris detection: any physical fill beyond what the logical write
	// pointer implies means burned PBAs; flag the zone so future writes
	// take the relocation path.
	remapped := false
	for i := range fills {
		if fills[i] < 0 {
			continue
		}
		if fills[i] > v.expectedPhysFill(z, i, wp) {
			remapped = true
		}
	}
	v.relocMu.Lock()
	if len(v.reloc[z]) > 0 || len(v.parityReloc[z]) > 0 {
		remapped = true
	}
	v.relocMu.Unlock()

	lz.wp = wp
	lz.submittedWP = wp
	lz.persistedWP = wp // post-crash, everything on media is durable
	lz.remapped = remapped
	switch {
	case allFinished || wp == v.lt.zoneSectors():
		lz.state = zns.ZoneFull
	case wp == 0:
		lz.state = zns.ZoneEmpty
	default:
		lz.state = zns.ZoneClosed
	}

	// Rebuild the stripe buffer for a partial tail stripe so future
	// appends can compute parity without device reads (§5.1).
	if lz.state == zns.ZoneClosed || lz.state == zns.ZoneOpen {
		if tail := wp % stripeSec; tail != 0 {
			if err := v.rebuildStripeBuffer(lz, wp/stripeSec, tail, ppLogs); err != nil {
				return genDirty, err
			}
		}
	}
	return genDirty, nil
}

func clampI64(x, lo, hi int64) int64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// expectedPhysFill returns how many sectors of physical zone z on device
// i a logical fill of wp implies (data units plus parity of complete
// stripes).
func (v *Volume) expectedPhysFill(z, i int, wp int64) int64 {
	stripeSec := v.lt.stripeSectors()
	full := wp / stripeSec
	tail := wp % stripeSec
	fill := int64(0)
	for s := int64(0); s < full; s++ {
		fill += v.lt.su // one unit (data or parity) per device per stripe
	}
	if tail > 0 {
		s := full
		if u := v.lt.unitOfDev(z, s, i); u >= 0 {
			fill += clampI64(tail-int64(u)*v.lt.su, 0, v.lt.su)
		}
		// The tail stripe's parity is not yet written (its partial parity
		// lives with the parity engine), so the parity device expects 0.
	}
	return fill
}

// repairStripe inspects one stripe and returns its recovered data fill g.
// present[u] is the data present per unit (-1 unknown/missing device), q
// the parity sectors present (-1 unknown). trunc reports that the stripe
// (and therefore the zone) had unrecoverable holes and was truncated at
// g.
func (v *Volume) repairStripe(z int, s int64, present []int64, q int64, ppLogs []record, finished bool) (g int64, fixed, trunc bool, err error) {
	su := v.lt.su

	// Fast path: everything full.
	complete := true
	for _, p := range present {
		if p >= 0 && p < su {
			complete = false
		}
	}
	if complete && (q < 0 || q == su) {
		return v.lt.stripeSectors(), false, false, nil
	}

	if complete && q < su && q >= 0 {
		// Parity hole: data complete but parity torn/lost (§5.2 write
		// hole). Recompute and append the missing parity region.
		if v.degradedNow() < 0 {
			if err := v.rewriteParity(z, s, q); err != nil {
				return 0, false, false, err
			}
			return v.lt.stripeSectors(), true, false, nil
		}
		// Degraded: one data unit is unknown AND the parity that would
		// serve its reads is incomplete. The unknown unit cannot be
		// assumed full; fall through to prefix inference, which counts
		// it only as far as surviving parity can reconstruct it.
	}

	// Data incomplete. Determine the contiguous prefix and whether the
	// holes can be repaired.
	if q == su {
		// Full parity present: the stripe was complete at crash. Every
		// short unit is a hole; with at most one short unit (or one
		// unknown device) reconstruct it from parity + survivors.
		shorts := []int{}
		unknown := -1
		for u, p := range present {
			if p < 0 {
				unknown = u
			} else if p < su {
				shorts = append(shorts, u)
			}
		}
		switch {
		case len(shorts) == 0:
			// Only the missing device's unit is unknown: readable via
			// degraded reads; nothing to repair on media.
			return v.lt.stripeSectors(), false, false, nil
		case len(shorts) == 1 && unknown < 0:
			u := shorts[0]
			if err := v.reconstructUnitTail(z, s, u, present); err != nil {
				return 0, false, false, err
			}
			return v.lt.stripeSectors(), true, false, nil
		default:
			// Two or more erasures: unrecoverable; fall through to
			// truncation.
		}
	}

	// Partial stripe (or unrecoverable holes): compute the contiguous
	// data prefix, extending across an unknown (failed) device's unit
	// when later evidence (data in a later unit, or partial-parity logs)
	// proves it was full.
	ppEnd := v.ppEndForStripe(z, s, ppLogs) // zone-relative stripe fill per pp logs, -1 none
	// recon bounds how much of an unknown (missing-device) unit is
	// actually reconstructible: the surviving media parity prefix, or the
	// partial-parity log coverage. Counting anything beyond it into the
	// zone would leave unreadable sectors below the write pointer.
	recon := q
	if _, ppcov := v.parityImageFromLogs(z, s, ppLogs); ppcov > recon {
		recon = ppcov
	}
	g = 0
	for u := 0; u < v.lt.d; u++ {
		p := present[u]
		if p < 0 {
			// Unknown unit (missing device): infer from later units
			// and pp logs, capped by what parity can reconstruct.
			inferred := int64(0)
			for u2 := u + 1; u2 < v.lt.d; u2++ {
				if present[u2] > 0 {
					inferred = su // a later unit has data => this one was full
				}
			}
			if ppEnd >= 0 {
				if f := clampI64(ppEnd-int64(u)*su, 0, su); f > inferred {
					inferred = f
				}
			}
			if inferred > recon {
				if recon < 0 {
					recon = 0
				}
				inferred = recon
			}
			p = inferred
		}
		g += p
		if p < su {
			break
		}
	}

	// Detect debris: data beyond the prefix on later units.
	prefixUnits := g / su
	for u := int(prefixUnits) + 1; u < v.lt.d; u++ {
		if present[u] > 0 {
			trunc = true
		}
	}
	if q > 0 && g < v.lt.stripeSectors() && !finished {
		// Parity persisted for an incomplete stripe: debris unless the
		// zone was finished (FinishZone writes prefix parity).
		trunc = true
	}
	return g, false, trunc, nil
}

// degradedNow returns the failed device index or -1 (lock-free helper for
// recovery, which runs single-threaded).
func (v *Volume) degradedNow() int { return v.degraded }

// rewriteParity recomputes the parity of a data-complete stripe and
// appends the missing region [q, su) at the parity device's write
// pointer.
func (v *Volume) rewriteParity(z int, s int64, q int64) error {
	ss := int64(v.sectorSize)
	su := v.lt.su
	units := make([][]byte, v.lt.d)
	var rs subReads
	for u := 0; u < v.lt.d; u++ {
		units[u] = make([]byte, su*ss)
		if err := v.readUnitPiece(nil, z, s, u, 0, su, units[u], &rs); err != nil {
			return err
		}
	}
	if err := v.awaitReads(rs.futs); err != nil {
		return err
	}
	p := parity.Encode(units...)
	dev := v.lt.parityDev(z, s)
	d := v.devs[dev]
	if d == nil {
		return nil
	}
	fut := d.Write(v.lt.parityPBA(z, s)+q, p[q*ss:], 0)
	return fut.Wait()
}

// reconstructUnitTail repairs the single short data unit u of a stripe
// whose parity is fully present, writing the reconstructed tail at the
// owning device's write pointer (§4.3: "rebuilding the missing stripe
// units using parity").
func (v *Volume) reconstructUnitTail(z int, s int64, u int, present []int64) error {
	ss := int64(v.sectorSize)
	su := v.lt.su
	a := present[u] // repair [a, su)
	n := su - a
	img := make([]byte, n*ss)
	var rs subReads
	if err := v.readParityPiece(nil, z, s, a, su, img, &rs); err != nil {
		return err
	}
	others := make([][]byte, 0, v.lt.d-1)
	for u2 := 0; u2 < v.lt.d; u2++ {
		if u2 == u {
			continue
		}
		b := make([]byte, n*ss)
		if err := v.readUnitPiece(nil, z, s, u2, a, su, b, &rs); err != nil {
			return err
		}
		others = append(others, b)
	}
	if err := v.awaitReads(rs.futs); err != nil {
		return err
	}
	for _, o := range others {
		parity.XORInto(img, o)
	}
	dev := v.lt.dataDev(z, s, u)
	d := v.devs[dev]
	if d == nil {
		return ErrInconsistent
	}
	pba := int64(z)*v.lt.physZoneSize + s*su + a
	return d.Write(pba, img, 0).Wait()
}

// ppEndForStripe returns the stripe-relative data fill implied by the
// latest valid partial-parity log for stripe s of zone z, or -1 if none.
func (v *Volume) ppEndForStripe(z int, s int64, ppLogs []record) int64 {
	lo := v.lt.stripeStart(z, s)
	hi := lo + v.lt.stripeSectors()
	end := int64(-1)
	for i := range ppLogs {
		r := &ppLogs[i]
		if r.startLBA >= lo && r.endLBA <= hi && r.gen == v.gen[z] {
			if e := r.endLBA - lo; e > end {
				end = e
			}
		}
	}
	return end
}

// rebuildStripeBuffer reloads the partial tail stripe (s, fill) of a zone
// into a stripe buffer: present units are read from their devices; a
// missing device's unit is reconstructed by replaying the partial-parity
// logs in LBA order (§5.1).
func (v *Volume) rebuildStripeBuffer(lz *logicalZone, s int64, fill int64, ppLogs []record) error {
	z := lz.idx
	ss := int64(v.sectorSize)
	su := v.lt.su
	buf, err := v.stripeBufferLocked(lz, s, 0) // single-threaded during mount
	if err != nil {
		return err
	}
	buf.fill = fill
	fills := v.lt.unitFills(fill)

	missingUnit := -1
	var rs subReads
	for u := 0; u < v.lt.d; u++ {
		if fills[u] == 0 {
			continue
		}
		dev := v.lt.dataDev(z, s, u)
		if v.devs[dev] == nil {
			missingUnit = u
			continue
		}
		dst := buf.data[int64(u)*su*ss : int64(u)*su*ss+fills[u]*ss]
		if err := v.readUnitPiece(nil, z, s, u, 0, fills[u], dst, &rs); err != nil {
			return err
		}
	}
	if err := v.awaitReads(rs.futs); err != nil {
		return err
	}
	if missingUnit < 0 {
		return nil
	}

	// Reconstruct the missing unit: build the parity image from the
	// partial-parity logs (§5.1), then XOR with the surviving units.
	img, covered := v.parityImageFromLogs(z, s, ppLogs)
	u := missingUnit
	need := fills[u]
	if covered < need {
		// Partial parity insufficient (e.g. lost with the power): data
		// at and beyond the gap is discarded per §5.1. The zone write
		// pointer has already been bounded by ppEnd in repairStripe;
		// treat the rest as zeroes here.
		need = covered
	}
	dst := buf.data[int64(u)*su*ss : int64(u)*su*ss+su*ss]
	copy(dst, img)
	for u2 := 0; u2 < v.lt.d; u2++ {
		if u2 == u || fills[u2] == 0 {
			continue
		}
		src := buf.data[int64(u2)*su*ss : int64(u2)*su*ss+fills[u2]*ss]
		hi := min(int64(len(src)), need*ss)
		if hi > 0 {
			parity.XORInto(dst[:hi], src[:hi])
		}
	}
	return nil
}

// parityImageFromLogs replays the valid partial-parity logs of stripe s
// in LBA order, producing the current parity image over intra offsets
// [0, covered).
func (v *Volume) parityImageFromLogs(z int, s int64, ppLogs []record) (img []byte, covered int64) {
	ss := int64(v.sectorSize)
	su := v.lt.su
	lo := v.lt.stripeStart(z, s)
	hi := lo + v.lt.stripeSectors()
	img = make([]byte, su*ss)

	// Collect, then apply in (startLBA, endLBA) order — later logs
	// overwrite earlier ones where they overlap.
	var logs []*record
	for i := range ppLogs {
		r := &ppLogs[i]
		if r.startLBA >= lo && r.endLBA <= hi && r.gen == v.gen[z] {
			logs = append(logs, r)
		}
	}
	for i := 1; i < len(logs); i++ {
		for j := i; j > 0 && logs[j-1].startLBA > logs[j].startLBA; j-- {
			logs[j-1], logs[j] = logs[j], logs[j-1]
		}
	}
	for _, r := range logs {
		a := r.startLBA - lo
		b := r.endLBA - lo
		regions, nreg := v.lt.intraRegions(a, b)
		src := r.payload
		for _, reg := range regions[:nreg] {
			n := (reg.b - reg.a) * ss
			if int64(len(src)) < n {
				n = int64(len(src))
			}
			copy(img[reg.a*ss:reg.a*ss+n], src[:n])
			src = src[n:]
		}
		if e := clampI64(b, 0, su); e > covered {
			covered = e
		}
		if b-a >= su {
			covered = su
		}
	}
	return img, covered
}
