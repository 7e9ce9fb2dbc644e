package raizn

import (
	"cmp"
	"slices"

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

		// Generation counters, then the in-flight zone-reset WALs that are
		// still authoritative. Zones and stripes go in index order
		// throughout, so that one state always writes one checkpoint.
		v.mu.Lock()
		gens, seq0 := v.snapshotGensLocked()
		var wals []*record
		for _, z := range sortedKeys(nil, v.pendingWALs) {
			if g := v.pendingWALs[z]; g == gens[z] {
				wals = append(wals, &record{
					typ:      recResetWAL,
					startLBA: v.lt.zoneStart(z),
					endLBA:   v.lt.zoneStart(z) + v.lt.zoneSectors(),
					gen:      g,
					inline:   encodeResetWAL(z),
				})
			}
		}
		v.mu.Unlock()
		for b := range (len(gens) + gensPerBlock - 1) / gensPerBlock {
			out = append(out, &record{
				typ:    recGenCounters,
				gen:    seq0 + uint64(b),
				inline: encodeGenBlock(b, gens),
			})
		}
		out = append(out, wals...)

		// Relocated fragments whose payload lives on this device.
		v.relocMu.Lock()
		for _, z := range sortedKeys(nil, v.reloc) {
			for _, e := range v.reloc[z] {
				if e.dev != dev {
					continue
				}
				out = append(out, &record{
					typ: recRelocData, startLBA: e.startLBA, endLBA: e.endLBA,
					gen: gens[z], payload: e.data,
				})
			}
		}
		for _, z := range sortedKeys(nil, v.parityReloc) {
			m := v.parityReloc[z]
			for _, s := range sortedKeys(nil, m) {
				e := m[s]
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
		// survive metadata GC and the mount's roll-overs. Copied under
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
		var stripes []int64
		for z, lz := range v.zones {
			lz.mu.Lock()
			stripes = sortedKeys(stripes, lz.active)
			for _, s := range stripes {
				buf := lz.active[s]
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

// mdZoneRoom returns how many more sectors fit in physical zone z.
func mdZoneRoom(d *zns.Device, z int) int64 {
	zd := d.Zone(z)
	if zd.State == zns.ZoneFull {
		return 0
	}
	return d.Config().ZoneCap - (zd.WP - d.ZoneStart(z))
}

// sortedKeys returns m's keys in increasing order, in dst's backing array
// when it is large enough.
func sortedKeys[K cmp.Ordered, V any](dst []K, m map[K]V) []K {
	dst = dst[:0]
	for k := range m {
		dst = append(dst, k)
	}
	slices.Sort(dst)
	return dst
}

// issueCheckpoint appends the checkpoint records recs of one kind
// (checkpointRecords) into the given physical zone without waiting, the
// last one FUA: a FUA append persists its zone's prefix, so once every
// returned future has completed the whole checkpoint is durable, with no
// device flush. A record that does not fit surfaces as that append's
// error; with nothing live to checkpoint there is nothing to wait for.
// Once a general checkpoint is durable, the checksum rows it carries leave
// their zones' pending runs.
func (v *Volume) issueCheckpoint(d *zns.Device, phys int, dev int, kind mdKind, recs []*record) []*vclock.Future {
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
