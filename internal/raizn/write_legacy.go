package raizn

import (
	"raizn/internal/obs"
	"raizn/internal/parity"
	"raizn/internal/ppengine"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// This file keeps the pre-coalescing write path, selected with
// Config.LegacyWritePath. It issues every stripe-unit sub-IO as its own
// device command and computes parity under the zone lock. It exists as
// the differential-testing and benchmarking baseline for the coalesced
// three-phase path in write.go; new features only need to land there.

// runWriteLegacy is the uncoalesced equivalent of the plan/compute/submit
// pipeline. Caller holds lz.mu (with lz.wp already advanced); the call
// releases it.
func (v *Volume) runWriteLegacy(sp *obs.Span, lz *logicalZone, off, end int64, full bool, data []byte, flags zns.Flag) *vclock.Future {
	// Device sub-IOs carry FUA only; Preflush is the ledger's business.
	futs, pending, err := v.issueWriteLocked(sp, lz, off, data, flags&zns.FUA)
	if end > lz.submittedWP {
		lz.submittedWP = end
	}
	if full && err == nil {
		v.closeZoneSlot(lz, zns.ZoneFull)
		// Every stripe of the zone is complete: sweep all PP state.
		v.eng.ZoneReset(lz.idx)
	}
	durable := err == nil && flags&(zns.FUA|zns.Preflush) != 0
	publish := err == nil && (durable || len(pending) > 0)
	if publish {
		lz.unpublished++
	}
	lz.mu.Unlock()
	if err != nil {
		sp.End(err)
		return v.clk.Completed(err)
	}
	v.fireHook("raizn.write.submit", obs.SrcLogical, lz.idx, end)
	futs = v.issuePendingMD(sp, pending, futs, flags&zns.FUA)
	result := v.clk.NewFuture()
	var chain, prev *vclock.Future
	if durable {
		chain = result
	}
	if publish {
		futs, prev = v.publishWrite(sp, lz, pending, futs, flags, chain)
	}
	sp.Mark(obs.PhaseSubmit)
	v.fireHook("raizn.write.md", obs.SrcLogical, lz.idx, end)

	ws := v.getWriteState() // carries the completion only
	ws.sp, ws.end = sp, end
	ws.futs = append(ws.futs, futs...)
	v.completeWrite(ws, lz, durable, prev, result)
	return result
}

// issueWriteLocked splits [off, off+len) of zone lz into per-stripe work:
// buffer the data, issue data sub-IOs, and either full parity (stripe
// complete) or a partial-parity log record. Caller holds lz.mu.
func (v *Volume) issueWriteLocked(sp *obs.Span, lz *logicalZone, off int64, data []byte, flags zns.Flag) ([]subIO, []pendingMD, error) {
	var futs []subIO
	var pending []pendingMD
	ss := int64(v.sectorSize)
	stripeSec := v.lt.stripeSectors()

	for len(data) > 0 {
		s := off / stripeSec
		inStripe := off % stripeSec
		n := stripeSec - inStripe
		if avail := int64(len(data)) / ss; n > avail {
			n = avail
		}
		chunk := data[:n*ss]

		buf, err := v.stripeBufferLocked(lz, s, inStripe)
		if err != nil {
			return futs, pending, err
		}
		copy(buf.data[inStripe*ss:], chunk)
		buf.fill = inStripe + n

		// Data sub-IOs, one per touched stripe unit.
		v.issueDataLocked(sp, lz.idx, s, inStripe, chunk, flags, &futs, &pending)

		if buf.fill == stripeSec {
			// Stripe complete: write the full parity unit and recycle
			// the buffer.
			if v.eng.InPlaceParityPrefix() {
				v.issueZRWAParityLocked(sp, lz, s, buf, flags, &futs)
			} else {
				v.issueParityLocked(sp, lz, s, buf, flags, &futs, &pending)
			}
			v.recordStripeChecksumsLocked(lz, s, buf, &pending)
			delete(lz.active, s)
			buf.stripe = -1
			buf.fill = 0
			lz.free = append(lz.free, buf)
			lz.cond.Broadcast()
			v.eng.StripeClosed(lz.idx, s)
		} else if v.eng.InPlaceParityPrefix() {
			// Stripe still partial: update the parity prefix in place
			// through the random write area (§5.4).
			v.issueZRWAParityLocked(sp, lz, s, buf, flags, &futs)
		} else {
			// Stripe still partial: log partial parity for the region
			// this write affected (§5.1).
			if p := v.partialParityLocked(lz, s, buf, inStripe, inStripe+n); p != nil {
				pending = append(pending, *p)
			}
		}

		off += n
		data = data[n*ss:]
	}
	return futs, pending, nil
}

// issueDataLocked writes the data chunk covering zone-relative stripe
// offsets [inStripe, inStripe+len) of stripe s to the owning devices.
func (v *Volume) issueDataLocked(sp *obs.Span, z int, s, inStripe int64, chunk []byte, flags zns.Flag, futs *[]subIO, pending *[]pendingMD) {
	ss := int64(v.sectorSize)
	for len(chunk) > 0 {
		u := int(inStripe / v.lt.su)
		intra := inStripe % v.lt.su
		n := v.lt.su - intra
		if avail := int64(len(chunk)) / ss; n > avail {
			n = avail
		}
		dev := v.lt.dataDev(z, s, u)
		pba := int64(z)*v.lt.physZoneSize + s*v.lt.su + intra
		lbaStart := v.lt.zoneStart(z) + s*v.lt.stripeSectors() + inStripe
		v.issueDeviceWrite(sp, dev, pba, chunk[:n*ss], flags, lbaStart, false, z, s, futs, pending)
		chunk = chunk[n*ss:]
		inStripe += n
	}
}

// issueParityLocked computes and writes the full parity unit of a
// completed stripe from its buffer.
func (v *Volume) issueParityLocked(sp *obs.Span, lz *logicalZone, s int64, buf *stripeBuffer, flags zns.Flag, futs *[]subIO, pending *[]pendingMD) {
	ss := int64(v.sectorSize)
	suBytes := v.lt.su * ss
	units := make([][]byte, v.lt.d)
	for u := range units {
		units[u] = buf.data[int64(u)*suBytes : int64(u+1)*suBytes]
	}
	p := parity.Encode(units...)
	dev := v.lt.parityDev(lz.idx, s)
	v.stats.fullParityWrites.Add(1)
	v.issueDeviceWrite(sp, dev, v.lt.parityPBA(lz.idx, s), p, flags, 0, true, lz.idx, s, futs, pending)
}

// partialParityLocked builds the partial-parity log record for a write
// covering zone-relative stripe offsets [a, b) of the (still partial)
// stripe s. The log goes to the partial-parity metadata zone of the
// device that will eventually hold the stripe's parity (Table 1). Caller
// holds lz.mu; the append itself happens later.
func (v *Volume) partialParityLocked(lz *logicalZone, s int64, buf *stripeBuffer, a, b int64) *pendingMD {
	dev := v.lt.parityDev(lz.idx, s)
	if v.mdm(dev) == nil {
		return nil // parity device failed: data units carry the write
	}
	regions, n := v.lt.intraRegions(a, b)
	img := v.parityImageLocked(buf, regions[:n])
	frame := make([]byte, v.sectorSize+len(img))
	copy(frame[v.sectorSize:], img)
	v.stats.partialParityLogs.Add(1)
	start := v.lt.stripeStart(lz.idx, s)
	return &pendingMD{
		dev:   dev,
		z:     lz.idx,
		s:     s,
		hasPP: true,
		pp: ppengine.Append{
			Dev:      dev,
			Zone:     lz.idx,
			Stripe:   s,
			StartLBA: start + a,
			EndLBA:   start + b,
			Gen:      v.Generation(lz.idx),
			Frame:    frame,
		},
	}
}
