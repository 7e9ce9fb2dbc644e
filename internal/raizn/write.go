package raizn

import (
	"errors"
	"sync/atomic"

	"raizn/internal/obs"
	"raizn/internal/parity"
	"raizn/internal/ppengine"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// SubmitWrite submits a sequential write of data at lba. Like a physical
// ZNS zone, a logical zone only accepts writes at its write pointer, and
// a write must not cross a logical zone boundary.
//
// The call validates, claims the zone range, and issues all sub-IOs
// (data, parity, partial-parity logs) before returning; the future
// completes when enough state is durable for the write's flags:
//
//   - no flags: data + (partial) parity submitted and transferred, i.e.
//     the write is tolerant of a single device failure (§5.1: completion
//     is not reported before partial parity is written);
//   - FUA / Preflush: additionally, the write and all preceding data in
//     the same logical zone are power-loss durable (§5.3); Preflush
//     widens "preceding data" to every write the volume has completed.
//     The flushes this takes are issued with the write's own sub-IOs,
//     not after them (ledger.go).
//
// The hot path runs in three phases (see DESIGN.md, "write-path lock
// discipline"):
//
//  1. plan (under lz.mu): validate, claim the range and a submission
//     ticket, copy partial-stripe payloads into stripe buffers, and
//     record every device sub-IO as a plan entry;
//  2. compute (no locks): parity XOR, partial-parity images and CRC32-C
//     rows over the now-immutable snapshot;
//  3. submit (under lz.mu, in ticket order): coalesce physically
//     adjacent plan entries per device into single (vectored) write
//     commands and issue them, then publish the submitted write pointer.
//
// Metadata appends (partial parity, relocations, checksums) are prepared
// in the phases but issued after lz.mu is released, because metadata GC
// takes zone locks while checkpointing. A short publish step (lz.mu
// again) then enters them in the durability ledger and, for a FUA/Preflush
// write, issues the flushes the zone still needs (ledger.go).
func (v *Volume) SubmitWrite(lba int64, data []byte, flags zns.Flag) *vclock.Future {
	if len(data) == 0 || len(data)%v.sectorSize != 0 {
		return v.clk.Completed(ErrUnaligned)
	}
	nSectors := int64(len(data) / v.sectorSize)
	if lba < 0 || lba+nSectors > v.lt.numSectors() {
		return v.clk.Completed(ErrOutOfRange)
	}
	z := v.lt.zoneOf(lba)
	off := lba - v.lt.zoneStart(z)
	if off+nSectors > v.lt.zoneSectors() {
		return v.clk.Completed(ErrZoneBoundary)
	}
	if v.ReadOnly() {
		return v.clk.Completed(ErrReadOnly)
	}

	// Root span of the request; nil (and free) while tracing is disabled.
	sp := v.tracer.Begin(obs.OpWrite, lba, int64(len(data)))

	lz := v.zones[z]
	lz.mu.Lock()
	for lz.resetting {
		lz.cond.Wait()
	}
	if lz.state == zns.ZoneFull {
		lz.mu.Unlock()
		sp.End(ErrZoneFull)
		return v.clk.Completed(ErrZoneFull)
	}
	if off != lz.wp {
		lz.mu.Unlock()
		sp.End(ErrNotSequential)
		return v.clk.Completed(ErrNotSequential)
	}
	if lz.state == zns.ZoneEmpty || lz.state == zns.ZoneClosed {
		if err := v.openZoneSlot(lz); err != nil {
			lz.mu.Unlock()
			sp.End(err)
			return v.clk.Completed(err)
		}
	}
	lz.wp = off + nSectors
	// runWrite unlocks lz.mu.
	return v.runWrite(sp, lz, off, data, flags)
}

// runWrite carries a validated, range-claimed write through issue and
// completion. Caller holds lz.mu (with lz.wp already advanced); runWrite
// releases it.
func (v *Volume) runWrite(sp *obs.Span, lz *logicalZone, off int64, data []byte, flags zns.Flag) *vclock.Future {
	end := off + int64(len(data))/int64(v.sectorSize)
	full := end == v.lt.zoneSectors()
	v.stats.logicalWriteBytes.Add(int64(len(data)))

	ws := v.getWriteState()
	ws.sp = sp
	ws.z = lz.idx
	// Device sub-IOs carry FUA only; Preflush is the ledger's business.
	ws.flags = flags & zns.FUA
	ws.end = end
	ws.full = full
	durable := flags&(zns.FUA|zns.Preflush) != 0

	// Claim the submission ticket at range-claim time: submit-phase order
	// must equal write-pointer order or device writes would arrive out of
	// sequence. A failed plan still runs its (possibly empty) submit
	// phase so the ticket line keeps moving.
	lz.submitTail++
	ws.ticket = lz.submitTail

	planErr := v.planWriteLocked(ws, lz, off, data)
	lz.mu.Unlock()
	sp.Mark(obs.PhasePlan)
	v.fireHook("raizn.write.plan", obs.SrcLogical, ws.z, off)

	v.computeWrite(ws)
	sp.Mark(obs.PhaseCompute)
	v.fireHook("raizn.write.compute", obs.SrcLogical, ws.z, off)

	lz.mu.Lock()
	for lz.submitHead != ws.ticket-1 {
		lz.cond.Wait()
	}
	v.submitWriteLocked(ws, lz, planErr == nil)
	publish := durable || len(ws.pending) > 0
	if publish {
		lz.unpublished++
	}
	lz.mu.Unlock()
	v.fireHook("raizn.write.submit", obs.SrcLogical, ws.z, end)

	ws.futs = v.issuePendingMD(sp, ws.pending, ws.futs, ws.flags)

	if planErr != nil {
		// Nothing will wait for this write, so nothing may rely on its
		// completion: its appends enter the ledger as if none were FUA.
		flags, durable = 0, false
	}
	result := v.clk.NewFuture()
	var chain, prev *vclock.Future
	if durable {
		chain = result
	}
	if publish {
		ws.futs, prev = v.publishWrite(sp, lz, ws.pending, ws.futs, flags, chain)
	}
	sp.Mark(obs.PhaseSubmit)
	v.fireHook("raizn.write.md", obs.SrcLogical, ws.z, end)

	if planErr != nil {
		// Sub-IOs already issued are left to complete on their own; the
		// caller sees the plan error.
		ws := ws
		v.clk.Go(func() {
			_ = v.awaitSubIOs(ws.futs)
			v.putWriteState(ws)
		})
		sp.End(planErr)
		return v.clk.Completed(planErr)
	}

	v.completeWrite(ws, lz, durable, prev, result)
	return result
}

// completeWrite arranges the completion of a submitted write: every sub-IO
// in ws.futs (and, for a durable write, every flush publishWrite arranged
// and prev, the zone's previous durable write) must finish before result
// does. No goroutine waits for them: the write completes in the completion
// callback of whichever comes last, and ws returns to the pool there — so
// ws may be gone when this returns.
func (v *Volume) completeWrite(ws *writeState, lz *logicalZone, durable bool, prev, result *vclock.Future) {
	ws.lz, ws.durable, ws.prev, ws.result = lz, durable, prev, result
	ws.join.wait(v.clk, ws.futs, ws)
}

// finish runs once every sub-IO of the write has completed (subJoin).
func (ws *writeState) finish() {
	err := ws.v.awaitSubIOs(ws.futs) // all complete: classifies errors, waits for nothing
	if err == nil && ws.prev != nil {
		ws.prev.Subscribe(ws.prevDone)
		return
	}
	ws.v.endWrite(ws, err)
}

// endWrite delivers the write's outcome; err is that of its sub-IOs or,
// failing none, of the zone's previous durable write.
func (v *Volume) endWrite(ws *writeState, err error) {
	sp, lz, end, durable, result := ws.sp, ws.lz, ws.end, ws.durable, ws.result
	v.putWriteState(ws)
	if err == nil && durable {
		err = v.writeDurable(lz, end, nil, result)
	}
	if err != nil {
		// A failure that is not a tolerated device death leaves the
		// logical write pointer ahead of what the host believes was
		// written; fail stop rather than serve an inconsistent volume.
		v.mu.Lock()
		v.readOnly = true
		v.mu.Unlock()
		sp.End(err)
		result.Complete(err)
		return
	}
	v.fireHook("raizn.write.done", obs.SrcLogical, lz.idx, end)
	sp.End(nil)
	result.Complete(nil)
}

// subJoin counts a request's sub-IOs down from their completion callbacks,
// so that the request is finished by the last of them — in a device's timer
// callback, mostly — instead of by a goroutine parked on each in turn.
type subJoin struct {
	left   atomic.Int32
	failed atomic.Bool
	clk    *vclock.Clock
	owner  interface{ finish() }
}

// wait calls owner.finish once every future in futs has completed: from
// the completion callback of the last one (before returning, when none is
// pending) if all succeeded, so finish must not block in a vclock primitive
// then; on a goroutine of its own if one failed, because the error paths —
// the degraded-mode transition, a fail-stop, a latent-sector repair that
// waits for its reconstruction — are rare and some of them do block. A
// join can be used again once it has fired.
func (j *subJoin) wait(clk *vclock.Clock, futs []subIO, owner interface{ finish() }) {
	j.clk, j.owner = clk, owner
	j.left.Store(int32(len(futs)) + 1) // +1: not before all are subscribed
	for i := range futs {
		futs[i].fut.SubscribeNotifier(j) // the join itself: no closure per join
	}
	j.Notify(nil)
}

// Notify counts one sub-IO down (vclock.Notifier).
func (j *subJoin) Notify(err error) {
	if err != nil {
		j.failed.Store(true)
	}
	if j.left.Add(-1) != 0 {
		return
	}
	if j.failed.Swap(false) {
		j.clk.Go(j.owner.finish)
	} else {
		j.owner.finish()
	}
}

// plannedIO is one device sub-write prepared during the plan phase and
// issued, possibly merged with its neighbors, during the submit phase.
type plannedIO struct {
	dev      int
	pba      int64  // absolute device sector
	lba      int64  // logical start, for relocation records (data entries)
	data     []byte // payload; parity entries are filled by the compute phase
	isParity bool
	s        int64 // zone-relative stripe
	zrwa     bool  // in-place parity update through the ZRWA; never merged
}

// parityTask is one parity image the compute phase must produce.
type parityTask struct {
	planIdx  int           // plan entry receiving the image
	s        int64         // stripe
	buf      *stripeBuffer // source buffer; nil when src holds the full stripe
	src      []byte        // caller data covering the whole stripe (buf == nil)
	fill     int64         // stripe data fill the image covers
	complete bool          // stripe completed: also CRC the units, recycle buf
}

// ppTask is one partial-parity log record the compute phase must build.
type ppTask struct {
	s    int64
	buf  *stripeBuffer
	fill int64 // buffer fill snapshot
	a, b int64 // zone-relative stripe offsets this write covered
}

// writeState carries one logical write through its phases. States are
// pooled per volume; every slice is reused across writes.
type writeState struct {
	v      *Volume
	sp     *obs.Span // request root span; nil while tracing is disabled
	z      int
	flags  zns.Flag
	end    int64
	full   bool
	ticket uint64

	plan    []plannedIO
	parity  []parityTask
	pp      []ppTask
	futs    []subIO
	pending []pendingMD
	crcs    []uint32 // completed-stripe CRC rows, stride csSlots()
	crcS    []int64  // stripe index per CRC row
	segs    [][]byte // submit-phase gather scratch
	srcs    [][]byte // fused XOR+CRC source scratch

	// Payload buffers the compute phase builds in place and the devices
	// copy at submit, kept from write to write (reuseBuf): full parity
	// images, partial-parity frames (header sector + image, the on-media
	// layout ppengine.Append wants) and encoded checksum-record sectors.
	images, frames, csRecs [][]byte

	// Completion (completeWrite).
	lz           *logicalZone
	durable      bool
	prev, result *vclock.Future
	join         subJoin
	prevDone     func(error) // subscribed to prev; made once per state
}

func (v *Volume) getWriteState() *writeState {
	if x := v.wsPool.Get(); x != nil {
		ws := x.(*writeState)
		ws.plan = ws.plan[:0]
		ws.parity = ws.parity[:0]
		ws.pp = ws.pp[:0]
		ws.futs = ws.futs[:0]
		ws.pending = ws.pending[:0]
		ws.crcs = ws.crcs[:0]
		ws.crcS = ws.crcS[:0]
		ws.segs = ws.segs[:0]
		return ws
	}
	ws := &writeState{v: v}
	ws.prevDone = func(err error) { v.endWrite(ws, err) }
	return ws
}

func (v *Volume) putWriteState(ws *writeState) {
	// Drop payload references so pooled states don't pin caller buffers.
	for i := range ws.plan {
		ws.plan[i].data = nil
	}
	for i := range ws.parity {
		ws.parity[i].buf, ws.parity[i].src = nil, nil
	}
	for i := range ws.pp {
		ws.pp[i].buf = nil
	}
	for i := range ws.futs {
		ws.futs[i] = subIO{}
	}
	for i := range ws.pending {
		ws.pending[i] = pendingMD{}
	}
	for i := range ws.segs {
		ws.segs[i] = nil
	}
	for i := range ws.srcs {
		ws.srcs[i] = nil
	}
	ws.sp, ws.lz, ws.prev, ws.result = nil, nil, nil, nil
	v.wsPool.Put(ws)
}

// reuseBuf returns the i-th buffer of bufs sized to size bytes, reusing
// its backing array across writes. The contents are whatever the last use
// left there.
func reuseBuf(bufs *[][]byte, i, size int) []byte {
	for len(*bufs) <= i {
		*bufs = append(*bufs, nil)
	}
	if cap((*bufs)[i]) < size {
		(*bufs)[i] = make([]byte, size)
	}
	return (*bufs)[i][:size]
}

// planWriteLocked (phase 1) splits [off, off+len) of zone lz into
// per-stripe work: copy partial-stripe payloads into stripe buffers and
// record every device sub-IO, parity image and partial-parity log the
// write needs. Caller holds lz.mu.
//
// Full-stripe chunks bypass the stripe buffers: their parity and CRCs
// are computed straight from the caller's data, which remains valid
// until the submit phase finishes (all phases run inside SubmitWrite).
// Only head/tail partial stripes occupy a buffer, so a single write can
// never exhaust the buffer pool against itself.
func (v *Volume) planWriteLocked(ws *writeState, lz *logicalZone, off int64, data []byte) error {
	ss := int64(v.sectorSize)
	stripeSec := v.lt.stripeSectors()
	z := lz.idx
	ipp := v.eng.InPlaceParityPrefix()

	for len(data) > 0 {
		s := off / stripeSec
		inStripe := off % stripeSec
		n := stripeSec - inStripe
		if avail := int64(len(data)) / ss; n > avail {
			n = avail
		}
		chunk := data[:n*ss]

		_, buffered := lz.active[s]
		var buf *stripeBuffer
		if n != stripeSec || buffered {
			var err error
			buf, err = v.stripeBufferLocked(lz, s, inStripe)
			if err != nil {
				return err
			}
			copy(buf.data[inStripe*ss:], chunk)
			buf.fill = inStripe + n
		}

		v.planDataLocked(ws, z, s, inStripe, chunk)

		pDev := v.lt.parityDev(z, s)
		pPBA := v.lt.parityPBA(z, s)
		switch {
		case buf == nil || buf.fill == stripeSec:
			// Stripe complete: one full parity unit plus the CRC row.
			// (In ZRWA mode the unit goes in place through the random
			// write area and is counted as such at submit.)
			if !ipp {
				v.stats.fullParityWrites.Add(1)
			}
			ws.plan = append(ws.plan, plannedIO{
				dev: pDev, pba: pPBA, isParity: true, s: s,
				zrwa: ipp,
			})
			var src []byte
			if buf == nil {
				src = chunk
			}
			ws.parity = append(ws.parity, parityTask{
				planIdx: len(ws.plan) - 1, s: s, buf: buf, src: src,
				fill: stripeSec, complete: true,
			})
		case ipp:
			// Stripe still partial: update the parity prefix in place
			// through the random write area (§5.4).
			ws.plan = append(ws.plan, plannedIO{
				dev: pDev, pba: pPBA, isParity: true, s: s, zrwa: true,
			})
			ws.parity = append(ws.parity, parityTask{
				planIdx: len(ws.plan) - 1, s: s, buf: buf, fill: buf.fill,
			})
		default:
			// Stripe still partial: log partial parity for the region
			// this write affected (§5.1). The log goes to the device
			// that will eventually hold the stripe's parity (Table 1);
			// if that device is dead the data units carry the write.
			if v.mdm(pDev) != nil {
				v.stats.partialParityLogs.Add(1)
				ws.pp = append(ws.pp, ppTask{
					s: s, buf: buf, fill: buf.fill, a: inStripe, b: inStripe + n,
				})
			}
		}

		off += n
		data = data[n*ss:]
	}
	return nil
}

// planDataLocked records the data sub-IOs covering zone-relative stripe
// offsets [inStripe, inStripe+len) of stripe s, one per touched stripe
// unit.
func (v *Volume) planDataLocked(ws *writeState, z int, s, inStripe int64, chunk []byte) {
	ss := int64(v.sectorSize)
	for len(chunk) > 0 {
		u := int(inStripe / v.lt.su)
		intra := inStripe % v.lt.su
		n := v.lt.su - intra
		if avail := int64(len(chunk)) / ss; n > avail {
			n = avail
		}
		ws.plan = append(ws.plan, plannedIO{
			dev:  v.lt.dataDev(z, s, u),
			pba:  int64(z)*v.lt.physZoneSize + s*v.lt.su + intra,
			lba:  v.lt.zoneStart(z) + s*v.lt.stripeSectors() + inStripe,
			data: chunk[:n*ss],
			s:    s,
		})
		chunk = chunk[n*ss:]
		inStripe += n
	}
}

// computeWrite (phase 2) produces every parity image, partial-parity
// payload and CRC row the plan needs. It runs with no locks held: the
// stripe-buffer bytes it reads were written under lz.mu before the plan
// phase released it (our own copies, or a predecessor's — ordered by the
// buffer hand-off in stripeBufferLocked), and concurrent writers only
// touch disjoint byte ranges above our fill snapshots.
func (v *Volume) computeWrite(ws *writeState) {
	ss := int64(v.sectorSize)
	su := v.lt.su
	suBytes := su * ss
	gen := v.Generation(ws.z)
	csDev := v.checksumDev(ws.z)
	nSlots := v.csSlots()

	for i := range ws.parity {
		t := &ws.parity[i]
		plen := su
		if !t.complete && t.fill < su {
			plen = t.fill
		}
		out := reuseBuf(&ws.images, i, int(plen*ss))
		ws.plan[t.planIdx].data = out
		if !t.complete {
			v.parityInto(t.buf.data, t.fill, 0, plen, out)
			continue
		}
		// Completed stripe, one fused pass (parity.XORCRCInto): XOR the D
		// units into the parity image and accumulate the D+1 CRCs of the
		// checksum row while each block is cache-hot. A complete stripe
		// always has its whole payload in one contiguous snapshot.
		stripe := t.src
		if t.buf != nil {
			stripe = t.buf.data
		}
		srcs := ws.srcs[:0]
		for u := 0; u < v.lt.d; u++ {
			srcs = append(srcs, stripe[int64(u)*suBytes:int64(u+1)*suBytes])
		}
		ws.srcs = srcs
		base := len(ws.crcs)
		for u := 0; u <= v.lt.d; u++ {
			ws.crcs = append(ws.crcs, 0)
		}
		parity.XORCRCInto(out, srcs, ws.crcs[base:], crcTable)
		v.stats.checksumRecords.Add(1)
		if v.mdm(csDev) != nil {
			// The record is encoded here, into a sector of the state's.
			sec := reuseBuf(&ws.csRecs, len(ws.crcS), int(ss))
			rec := record{typ: recChecksums, gen: gen,
				inline: encodeChecksumsInto(sec[headerBytes:], ws.z, t.s, ws.crcs[base:base+nSlots])}
			rec.encodeInto(sec)
			ws.pending = append(ws.pending, pendingMD{dev: csDev, rec: rec, enc: sec})
		}
		ws.crcS = append(ws.crcS, t.s)
	}

	for i, t := range ws.pp {
		// The image is XORed straight into its frame, behind the header
		// sector the engine fills in: built once, in its on-media layout.
		regions, n := v.lt.intraRegions(t.a, t.b)
		total := regions[0].b - regions[0].a + regions[1].b - regions[1].a // an unused interval is empty
		frame := reuseBuf(&ws.frames, i, int((1+total)*ss))
		pos := ss
		for _, r := range regions[:n] {
			end := pos + (r.b-r.a)*ss
			v.parityInto(t.buf.data, t.fill, r.a, r.b, frame[pos:end])
			pos = end
		}
		dev, start := v.lt.parityDev(ws.z, t.s), v.lt.stripeStart(ws.z, t.s)
		ws.pending = append(ws.pending, pendingMD{
			dev:   dev,
			z:     ws.z,
			s:     t.s,
			hasPP: true,
			pp: ppengine.Append{
				Dev:      dev,
				Zone:     ws.z,
				Stripe:   t.s,
				StartLBA: start + t.a,
				EndLBA:   start + t.b,
				Gen:      gen,
				Frame:    frame,
			},
		})
	}
}

// parityInto writes the parity of intra-unit offsets [a, b) of a stripe
// with `fill` data sectors present over out, whatever out held. Unwritten
// unit tails contribute zeroes. Units fill in order, so unit 0 reaches at
// least as far as any other: out starts as a copy of its piece, zero
// beyond it, and the other units are XORed in.
func (v *Volume) parityInto(data []byte, fill, a, b int64, out []byte) {
	ss := int64(v.sectorSize)
	su := v.lt.su
	n := 0
	if hi := min(fill, su, b); hi > a {
		n = copy(out, data[a*ss:hi*ss])
	}
	clear(out[n:])
	for u := int64(1); u < int64(v.lt.d); u++ {
		hi := min(fill-u*su, su, b)
		if hi <= a {
			break
		}
		src := data[(u*su+a)*ss : (u*su+hi)*ss]
		parity.XORInto(out[:len(src)], src)
	}
}

// submitWriteLocked (phase 3) issues the plan in ticket order: plan
// entries to the same device at physically adjacent addresses merge into
// one vectored write command, burned address ranges split off into
// relocation records (§5.2), and the submitted write pointer advances.
// Caller holds lz.mu and has waited for its ticket.
func (v *Volume) submitWriteLocked(ws *writeState, lz *logicalZone, ok bool) {
	tbl := v.loadDevs()
	z := lz.idx
	ss := int64(v.sectorSize)
	var dataB, parityB int64 // WA category bytes actually sent to devices

	// A failed plan's sub-IOs are noted as if none were FUA: nobody waits
	// for that write, so nothing may rely on their completion.
	fua := ok && ws.flags&zns.FUA != 0
	for dev := 0; dev < v.lt.n; dev++ {
		d := tbl.zoneDev(dev, z)
		if d == nil {
			continue // failed/not-yet-rebuilt: degraded write omits it
		}
		wpKnown := false
		var devWP int64
		segs := ws.segs[:0]
		var runStart, runNext int64
		var devEnd int64 // end of the highest sub-IO issued to this device
		for i := range ws.plan {
			e := &ws.plan[i]
			if e.dev != dev {
				continue
			}
			data := e.data
			pba, lba := e.pba, e.lba
			if !e.zrwa {
				if !wpKnown {
					devWP = d.Zone(int(pba / v.lt.physZoneSize)).WP
					wpKnown = true
				}
				if pba < devWP {
					// Burned prefix: relocate [pba, min(wp, pba+n)).
					burn := min(devWP-pba, int64(len(data))/ss)
					ws.pending = append(ws.pending,
						v.relocationRecord(dev, data[:burn*ss], lba, e.isParity, z, e.s))
					data = data[burn*ss:]
					pba += burn
					if len(data) == 0 {
						continue
					}
				}
			}
			devEnd = max(devEnd, pba+int64(len(data))/ss)
			if e.zrwa {
				// In-place parity prefix updates are ordered but never
				// merged; flush the pending run first so per-device
				// submission order matches plan order.
				segs = v.flushRun(ws, d, dev, runStart, segs)
				v.stats.zrwaParityWrites.Add(1)
				parityB += int64(len(data))
				child := ws.sp.Child(obs.OpDevWrite, dev, pba, int64(len(data)))
				ws.futs = append(ws.futs, subIO{dev: dev, fut: d.WriteZRWASpan(child, pba, data, ws.flags)})
				continue
			}
			if e.isParity {
				parityB += int64(len(data))
			} else {
				dataB += int64(len(data))
			}
			if len(segs) > 0 && pba == runNext {
				segs = append(segs, data)
				runNext += int64(len(data)) / ss
			} else {
				segs = v.flushRun(ws, d, dev, runStart, segs)
				runStart, runNext = pba, pba+int64(len(data))/ss
				segs = append(segs, data)
			}
		}
		ws.segs = v.flushRun(ws, d, dev, runStart, segs)
		if devEnd > 0 {
			// One ledger entry per device: a write's sub-IOs on a device
			// ascend within one physical zone, and the entry is made only
			// now that the device has them all.
			v.noteSubIO(lz, dev, devEnd, fua)
		}
	}
	if dataB > 0 {
		v.stats.waDataBytes.Add(dataB)
	}
	if parityB > 0 {
		v.stats.waParityBytes.Add(parityB)
	}

	// Publish the CRC rows now that the stripe payloads are applied on
	// the devices (writes take effect at submit).
	nSlots := v.csSlots()
	for i, s := range ws.crcS {
		v.setStripeChecksums(z, s, ws.crcs[i*nSlots:(i+1)*nSlots])
	}

	// Recycle buffers of completed stripes. They stayed in lz.active
	// until now so concurrent degraded reads could be served from memory
	// while the stripe's media writes were still pending.
	for i := range ws.parity {
		t := &ws.parity[i]
		if t.complete && t.buf != nil {
			delete(lz.active, t.s)
			t.buf.stripe = -1
			t.buf.fill = 0
			lz.free = append(lz.free, t.buf)
			// The stripe's full parity is on media: its partial-parity
			// state is dead. (A pp append still in flight for this stripe
			// may slip past this and linger live; the zone-full sweep
			// below and zone reset/finish reclaim such strays.)
			v.eng.StripeClosed(z, t.s)
		}
	}
	if ws.full && ok {
		// Every stripe of the zone is complete: sweep all PP state.
		v.eng.ZoneReset(z)
	}

	if lz.submittedWP < ws.end {
		lz.submittedWP = ws.end
	}
	if ws.full && ok {
		v.closeZoneSlot(lz, zns.ZoneFull)
	}
	lz.submitHead++
	lz.cond.Broadcast()
}

// flushRun issues the accumulated run as one device command (vectored
// when it merged more than one sub-IO) and returns the reset scratch.
func (v *Volume) flushRun(ws *writeState, d *zns.Device, dev int, start int64, segs [][]byte) [][]byte {
	switch len(segs) {
	case 0:
		return segs
	case 1:
		child := ws.sp.Child(obs.OpDevWrite, dev, start, int64(len(segs[0])))
		ws.futs = append(ws.futs, subIO{dev: dev, fut: d.WriteSpan(child, start, segs[0], ws.flags)})
	default:
		v.stats.coalescedSubWrites.Add(int64(len(segs) - 1))
		var bytes int64
		for _, s := range segs {
			bytes += int64(len(s))
		}
		child := ws.sp.Child(obs.OpDevWrite, dev, start, bytes)
		ws.futs = append(ws.futs, subIO{dev: dev, fut: d.WritevSpan(child, start, segs, ws.flags)})
	}
	return segs[:0]
}

// drainSubmitsLocked waits until every claimed write ticket has finished
// its submit phase, so the zone's media state matches lz.wp. Reset,
// finish and rebuild take this barrier before touching physical zones.
// Caller holds lz.mu.
func (v *Volume) drainSubmitsLocked(lz *logicalZone) {
	for lz.submitHead != lz.submitTail {
		lz.cond.Wait()
	}
}

// subIO pairs a completion future with the device it went to, so device
// deaths can be folded into degraded mode instead of failing the write.
type subIO struct {
	dev    int
	fut    *vclock.Future
	repair *repairCtx // foreground reads: reconstruction fallback on a medium error
}

// repairCtx carries enough context to transparently re-serve a failed
// read piece by parity reconstruction (read-repair of latent sector
// errors). The reconstruction path issues plain device reads, so repair
// never nests.
type repairCtx struct {
	z    int
	s    int64
	u    int
	a, b int64
	dst  []byte
	wp   int64 // zone write pointer snapshot from the original read plan
}

// pendingMD is a metadata append prepared under a zone lock and issued
// after it is released.
type pendingMD struct {
	dev      int
	rec      record
	enc      []byte // rec already encoded, in a buffer the write state owns (nil: encoded at issue)
	isReloc  bool   // register a relocation entry after the append
	isParity bool   // relocated parity rather than data
	z        int
	s        int64
	end      int64 // set by issuePendingMD: device sector the append ended at (0: none made)

	// pp routes the entry through the parity-persistence engine instead
	// of a direct metadata append (hasPP marks it set, and rec unused; the
	// struct is embedded by value to keep the hot path allocation-free).
	hasPP bool
	pp    ppengine.Append
}

// issuePendingMD performs the deferred metadata appends, appending their
// completion futures to futs and recording in each entry the device sector
// its append ended at, for the ledger. flags is the FUA bit of the
// triggering write:
// a FUA write's appends (partial parity, checksums, relocated data) are
// FUA like its data. The device table is loaded once for the whole batch.
// Each append gets an OpMDAppend child of sp.
func (v *Volume) issuePendingMD(sp *obs.Span, pending []pendingMD, futs []subIO, flags zns.Flag) []subIO {
	if len(pending) == 0 {
		return futs
	}
	tbl := v.loadDevs()
	for i := range pending {
		p := &pending[i]
		if p.hasPP {
			// Partial parity goes through the engine. On backpressure
			// (zraid PP-zone exhaustion) it becomes a plain §5.1 log
			// record, so the write path never blocks on PP-zone GC.
			a := p.pp
			a.Span = sp
			a.Flags = int(flags)
			f, end, ok := v.eng.Persist(a)
			if !ok {
				f, end = v.logPartialParity(a, false)
			}
			if f != nil {
				p.end = end
				futs = append(futs, subIO{dev: p.dev, fut: f})
			}
			continue
		}
		m := tbl.md[p.dev]
		if m == nil {
			continue // device failed: degraded
		}
		child := sp.Child(obs.OpMDAppend, p.dev, p.rec.startLBA, int64(len(p.rec.payload)+len(p.rec.inline)))
		buf := p.enc
		if buf == nil {
			buf = p.rec.encode(v.sectorSize)
		}
		fut, pba, err := m.appendEncoded(child, p.rec.typ, buf, nil, flags)
		if err != nil {
			child.End(err)
			if errors.Is(err, zns.ErrDeviceFailed) {
				v.noteDeviceError(p.dev, err)
				continue
			}
			futs = append(futs, subIO{dev: p.dev, fut: v.clk.Completed(err)})
			continue
		}
		if p.isReloc {
			v.addReloc(p.z, relocEntry{
				startLBA: p.rec.startLBA, endLBA: p.rec.endLBA,
				dev: p.dev, pba: pba + 1, data: p.rec.payload,
			}, p.isParity, p.s)
		}
		p.end = pba + p.rec.sectors(v.sectorSize, false)
		futs = append(futs, subIO{dev: p.dev, fut: fut})
	}
	return futs
}

// awaitSubIOs waits for all sub-IOs. A sub-IO that failed because its
// device died is tolerated (the write continues in degraded mode, §4.2);
// any other error, or a second device failure, is returned.
func (v *Volume) awaitSubIOs(futs []subIO) error {
	var firstErr error
	for _, s := range futs {
		err := s.fut.Wait()
		if err == nil {
			continue
		}
		if errors.Is(err, zns.ErrDeviceFailed) {
			v.noteDeviceError(s.dev, err)
			if v.ReadOnly() {
				return ErrReadOnly
			}
			continue
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// openZoneSlot charges one logical open-zone slot. Caller holds lz.mu.
func (v *Volume) openZoneSlot(lz *logicalZone) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.openCount >= v.maxOpen {
		return ErrTooManyOpen
	}
	v.openCount++
	lz.state = zns.ZoneOpen
	v.jrn.Record(obs.EvZoneState, obs.SrcLogical, lz.idx,
		int64(zns.ZoneOpen), lz.wp, int64(v.openCount), int64(v.openCount))
	return nil
}

// closeZoneSlot releases the open slot when a zone leaves the open state.
// Caller holds lz.mu.
func (v *Volume) closeZoneSlot(lz *logicalZone, to zns.ZoneState) {
	v.mu.Lock()
	if lz.state == zns.ZoneOpen {
		v.openCount--
	}
	lz.state = to
	v.jrn.Record(obs.EvZoneState, obs.SrcLogical, lz.idx,
		int64(to), lz.wp, int64(v.openCount), int64(v.openCount))
	v.mu.Unlock()
}

// stripeBufferLocked returns the buffer accumulating stripe s, whose fill
// must reach expectFill before this writer may extend it. When the stripe
// has no buffer yet: a writer starting the stripe (expectFill == 0)
// claims one from the pool, blocking while the pool is empty (paper §5.1
// notes this backpressure); a writer continuing a stripe waits for its
// predecessor — which holds an earlier submission ticket and therefore
// cannot be waiting on us — to claim and fill it. Caller holds lz.mu.
func (v *Volume) stripeBufferLocked(lz *logicalZone, s int64, expectFill int64) (*stripeBuffer, error) {
	for {
		if b, ok := lz.active[s]; ok {
			if b.fill != expectFill {
				return nil, ErrInconsistent // buffer out of sync with zone WP
			}
			return b, nil
		}
		if expectFill == 0 && len(lz.free) > 0 {
			b := lz.free[len(lz.free)-1]
			lz.free = lz.free[:len(lz.free)-1]
			b.stripe = s
			b.fill = 0
			lz.active[s] = b
			return b, nil
		}
		lz.cond.Wait()
	}
}

// issueDeviceWrite sends one device write, transparently relocating (all
// or part of) it to the device's metadata zone when the target PBA range
// was burned by a crash (below the physical write pointer and thus
// immutable, §5.2). Failed devices are skipped (degraded write). Used by
// the zone-seal path in FinishZone; the caller holds the zone lock.
func (v *Volume) issueDeviceWrite(sp *obs.Span, dev int, pba int64, data []byte, flags zns.Flag, lba int64, isParity bool, z int, s int64, futs *[]subIO, pending *[]pendingMD) {
	d := v.devForZone(dev, z)
	if d == nil {
		return
	}
	ss := int64(v.sectorSize)
	n := int64(len(data)) / ss
	physZone := int(pba / v.lt.physZoneSize)
	wp := d.Zone(physZone).WP // absolute
	if pba < wp {
		// Burned prefix: relocate [pba, min(wp, pba+n)).
		burn := min(wp-pba, n)
		*pending = append(*pending, v.relocationRecord(dev, data[:burn*ss], lba, isParity, z, s))
		data = data[burn*ss:]
		pba += burn
		lba += burn
		if len(data) == 0 {
			return
		}
	}
	if isParity {
		v.stats.waParityBytes.Add(int64(len(data)))
	} else {
		v.stats.waDataBytes.Add(int64(len(data)))
	}
	child := sp.Child(obs.OpDevWrite, dev, pba, int64(len(data)))
	fut := d.WriteSpan(child, pba, data, flags)
	v.noteSubIO(v.zones[z], dev, pba+int64(len(data))/ss, flags&zns.FUA != 0)
	*futs = append(*futs, subIO{dev: dev, fut: fut})
}

// relocationRecord builds the metadata append that relocates data (or a
// parity unit) to the affected device's metadata zone (§5.2, "remapped
// stripe unit").
func (v *Volume) relocationRecord(dev int, data []byte, lba int64, isParity bool, z int, s int64) pendingMD {
	n := int64(len(data)) / int64(v.sectorSize)
	typ := recRelocData
	start, end := lba, lba+n
	if isParity {
		typ = recRelocParity
		start = v.lt.stripeStart(z, s)
		end = start + n
	}
	return pendingMD{
		dev: dev,
		rec: record{
			typ:      typ,
			startLBA: start,
			endLBA:   end,
			gen:      v.Generation(z),
			payload:  append([]byte(nil), data...),
		},
		isReloc:  true,
		isParity: isParity,
		z:        z,
		s:        s,
	}
}

// parityImageLocked computes the stripe's current parity bytes over the
// given intra-unit regions into a single allocation, treating unwritten
// unit tails as zeroes. Caller holds lz.mu (it reads the live buffer).
func (v *Volume) parityImageLocked(buf *stripeBuffer, regions []intraInterval) []byte {
	ss := int64(v.sectorSize)
	var total int64
	for _, reg := range regions {
		total += reg.b - reg.a
	}
	out := make([]byte, total*ss)
	pos := int64(0)
	for _, reg := range regions {
		v.parityInto(buf.data, buf.fill, reg.a, reg.b, out[pos*ss:(pos+reg.b-reg.a)*ss])
		pos += reg.b - reg.a
	}
	return out
}

// addReloc registers a relocated fragment (data or parity) in the
// in-memory maps and flags the zone as remapped. Lock order: lz.mu
// before relocMu, matching every other path.
func (v *Volume) addReloc(z int, e relocEntry, isParity bool, s int64) {
	v.stats.relocations.Add(1)
	if v.jrn.Enabled() {
		par := int64(0)
		if isParity {
			par = 1
		}
		v.jrn.Record(obs.EvRelocation, e.dev, z, e.endLBA-e.startLBA, par, 0, 0)
	}
	lz := v.zones[z]
	lz.mu.Lock()
	lz.remapped = true
	v.relocMu.Lock()
	if isParity {
		if v.parityReloc == nil {
			v.parityReloc = make(map[int]map[int64]relocEntry)
		}
		m := v.parityReloc[z]
		if m == nil {
			m = make(map[int64]relocEntry)
			v.parityReloc[z] = m
		}
		m[s] = e
	} else {
		v.reloc[z] = insertReloc(v.reloc[z], e)
	}
	v.relocMu.Unlock()
	lz.mu.Unlock()
}

// RelocationCount returns the number of live relocated fragments (data
// and parity) — the quantity the paper's user-modifiable rebuild
// threshold watches (§5.2).
func (v *Volume) RelocationCount() int {
	v.relocMu.Lock()
	defer v.relocMu.Unlock()
	n := 0
	for _, l := range v.reloc {
		n += len(l)
	}
	for _, m := range v.parityReloc {
		n += len(m)
	}
	return n
}

// insertReloc inserts e into the fragment list sorted by startLBA,
// replacing any fragment it fully shadows.
func insertReloc(list []relocEntry, e relocEntry) []relocEntry {
	out := list[:0]
	for _, f := range list {
		if f.startLBA >= e.startLBA && f.endLBA <= e.endLBA {
			continue // fully shadowed by the new fragment
		}
		out = append(out, f)
	}
	out = append(out, e)
	// Insertion sort by startLBA (lists are tiny).
	for i := len(out) - 1; i > 0 && out[i-1].startLBA > out[i].startLBA; i-- {
		out[i-1], out[i] = out[i], out[i-1]
	}
	return out
}

// flushState is SubmitFlush's pooled scratch.
type flushState struct {
	snaps []int64          // submitted write pointer per logical zone
	prevs []*vclock.Future // durable writes in flight at the snapshot
	futs  []subIO
}

// SubmitFlush makes all previously completed writes durable. It flushes
// only the devices that hold a sub-IO nothing has persisted yet, joining
// flushes already in flight (ledger.go).
func (v *Volume) SubmitFlush() *vclock.Future {
	sp := v.tracer.Begin(obs.OpFlush, 0, 0)
	fs, _ := v.flushPool.Get().(*flushState)
	if fs == nil {
		fs = &flushState{snaps: make([]int64, v.lt.numZones)}
	}
	// Snapshot submitted logical write pointers for the persistence
	// bitmaps: data claimed but not yet on the devices (a write mid
	// submission) is not covered by this flush. A durable write still in
	// flight below the snapshot persists through its own FUA sub-IOs, so
	// the flush completes behind it.
	for z, lz := range v.zones {
		lz.mu.Lock()
		fs.snaps[z] = lz.submittedWP
		if f := lz.lastDurable; f != nil && !f.Done() {
			fs.prevs = append(fs.prevs, f)
		}
		lz.mu.Unlock()
	}
	for i, d := range v.loadDevs().devs {
		if d == nil {
			continue
		}
		if fut, _ := v.coverDev(sp, i, d, 0, true); fut != nil {
			fs.futs = append(fs.futs, subIO{dev: i, fut: fut})
		}
	}
	sp.Mark(obs.PhaseSubmit)
	result := v.clk.NewFuture()
	v.clk.Go(func() {
		err := v.awaitSubIOs(fs.futs)
		for _, f := range fs.prevs {
			if e := f.Wait(); e != nil && err == nil {
				err = e
			}
		}
		if err == nil {
			for z, lz := range v.zones {
				lz.mu.Lock()
				// The zone may have been reset since the snapshot.
				lz.persistedWP = max(lz.persistedWP, min(fs.snaps[z], lz.submittedWP))
				lz.mu.Unlock()
			}
			v.fireHook("raizn.flush.done", obs.SrcLogical, -1, 0)
		}
		clear(fs.futs)
		clear(fs.prevs)
		fs.futs, fs.prevs = fs.futs[:0], fs.prevs[:0]
		v.flushPool.Put(fs)
		sp.End(err)
		result.Complete(err)
	})
	return result
}

// PersistenceBitmap returns the persistence bitmap of zone z: one bit per
// stripe unit, set when that unit's written data is known durable (§5.3).
func (v *Volume) PersistenceBitmap(z int) []uint64 {
	lz := v.zones[z]
	lz.mu.Lock()
	persisted := lz.persistedWP
	lz.mu.Unlock()
	nSU := v.lt.zoneSectors() / v.lt.su
	bm := make([]uint64, (nSU+63)/64)
	for su := int64(0); su < nSU && su*v.lt.su < persisted; su++ {
		bm[su/64] |= 1 << (su % 64)
	}
	return bm
}
