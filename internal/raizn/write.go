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
// (data, parity, partial-parity logs) before returning. The data sub-IOs
// carry slices of data itself, and a device write's payload is the
// device's until the command completes (zns.Device.Write), so data must
// not change until the returned future completes — which it does only
// after the write's last device command has. The future completes when
// enough state is durable for the write's flags:
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
// A write holds lz.mu from claiming its range until its device sub-IOs
// are issued (see DESIGN.md, "Write path: one critical section per
// write"), so a zone's writes reach its devices one after another, in
// write-pointer order:
//
//  1. plan: validate, claim the range, fold partial-stripe payloads into
//     stripe buffers, and record every device sub-IO as a plan entry;
//  2. compute: parity XOR, partial-parity images and CRC32-C rows;
//  3. submit: coalesce physically adjacent plan entries per device into
//     single (vectored) write commands and issue them, then advance the
//     submitted write pointer.
//
// Metadata appends (partial parity, relocations, checksums) are prepared
// under lz.mu but issued after it is released, because metadata GC takes
// zone locks while checkpointing. A short publish step (lz.mu again) then
// enters them in the durability ledger and, for a FUA/Preflush write,
// issues the flushes the zone still needs (ledger.go).
func (v *Volume) SubmitWrite(lba int64, data []byte, flags zns.Flag) *vclock.Future {
	return v.SubmitWriteTo(nil, lba, data, flags)
}

// SubmitWriteTo is SubmitWrite completing fut, an incomplete future the
// caller owns (nil: a new one), and returning it; a rejected write
// completes fut with the error before returning. The caller must never
// re-arm fut: the durability ledger may keep a durable write's future as
// its zone's last durable write after it completes (lastDurable), and a
// later flush or durable write reads its outcome there.
func (v *Volume) SubmitWriteTo(fut *vclock.Future, lba int64, data []byte, flags zns.Flag) *vclock.Future {
	if fut == nil {
		fut = v.clk.NewFuture()
	}
	if len(data) == 0 || len(data)%v.sectorSize != 0 {
		return completed(fut, ErrUnaligned)
	}
	nSectors := int64(len(data) / v.sectorSize)
	if lba < 0 || lba+nSectors > v.lt.numSectors() {
		return completed(fut, ErrOutOfRange)
	}
	z := v.lt.zoneOf(lba)
	off := lba - v.lt.zoneStart(z)
	if off+nSectors > v.lt.zoneSectors() {
		return completed(fut, ErrZoneBoundary)
	}
	if v.ReadOnly() {
		return completed(fut, ErrReadOnly)
	}
	// Crash point before any of the write reaches a device; hooks fire
	// outside the zone lock.
	v.fireHook("raizn.write.plan", obs.SrcLogical, z, off)

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
		return completed(fut, ErrZoneFull)
	}
	if off != lz.wp {
		lz.mu.Unlock()
		sp.End(ErrNotSequential)
		return completed(fut, ErrNotSequential)
	}
	if lz.state == zns.ZoneEmpty || lz.state == zns.ZoneClosed {
		if err := v.openZoneSlot(lz); err != nil {
			lz.mu.Unlock()
			sp.End(err)
			return completed(fut, err)
		}
	}
	lz.wp = off + nSectors
	// runWrite unlocks lz.mu.
	return v.runWrite(sp, lz, off, data, flags, fut)
}

// completed completes fut with err and returns it.
func completed(fut *vclock.Future, err error) *vclock.Future {
	fut.Complete(err)
	return fut
}

// runWrite carries a validated, range-claimed write through issue and
// completion, which it reports on result. Caller holds lz.mu (with lz.wp
// already advanced); runWrite releases it once the write's device sub-IOs
// are issued.
func (v *Volume) runWrite(sp *obs.Span, lz *logicalZone, off int64, data []byte, flags zns.Flag, result *vclock.Future) *vclock.Future {
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

	if err := v.planWriteLocked(ws, lz, off, data); err != nil {
		// The stripe buffers disagree with the write pointer: release
		// the range, issue nothing and fail stop, as endWrite does.
		lz.wp = off
		lz.mu.Unlock()
		v.putWriteState(ws)
		v.mu.Lock()
		v.readOnly = true
		v.mu.Unlock()
		sp.End(err)
		return completed(result, err)
	}
	sp.Mark(obs.PhasePlan)
	v.computeWrite(ws)
	sp.Mark(obs.PhaseCompute)
	v.submitWriteLocked(ws, lz)
	publish := durable || len(ws.pending) > 0
	if publish {
		lz.unpublished++
	}
	lz.mu.Unlock()
	v.fireHook("raizn.write.submit", obs.SrcLogical, ws.z, end)

	ws.futs = v.issuePendingMD(sp, ws, ws.pending, ws.futs, ws.flags)
	if flags&zns.Preflush != 0 {
		// Every zone's checksum run goes to its log before the flushes
		// publishWrite issues.
		ws.futs = v.persistRuns(sp, ws.futs, ws.flags)
	}

	var chain, prev *vclock.Future
	if durable {
		chain = result
	}
	if publish {
		ws.futs, prev = v.publishWrite(sp, lz, ws.pending, ws.futs, flags, chain)
	}
	sp.Mark(obs.PhaseSubmit)
	v.fireHook("raizn.write.md", obs.SrcLogical, ws.z, end)

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
}

// parityTask is one completed stripe whose full parity image and CRC row
// the compute phase must produce.
type parityTask struct {
	planIdx int           // plan entry receiving the image
	s       int64         // stripe
	buf     *stripeBuffer // source buffer, recycled at submit; nil when src holds the full stripe
	src     []byte        // caller data covering the whole stripe (buf == nil)
}

// ppTask is one partial-parity log record the compute phase must build.
type ppTask struct {
	s    int64
	buf  *stripeBuffer
	a, b int64 // zone-relative stripe offsets this write covered
}

// writeState carries one logical write through its phases. States are
// pooled per volume; every slice is reused across writes.
type writeState struct {
	v     *Volume
	sp    *obs.Span // request root span; nil while tracing is disabled
	z     int
	flags zns.Flag
	end   int64
	full  bool

	plan    []plannedIO
	parity  []parityTask
	pp      []ppTask
	futs    []subIO
	pending []pendingMD
	crcs    []uint32 // a completed stripe's CRC row
	segs    [][]byte // submit-phase gather scratch
	srcs    [][]byte // fused XOR+CRC source scratch

	// Payload buffers the compute phase builds in place and the devices
	// copy before the commands carrying them complete, kept from write to
	// write (reuseBuf) — the state is pooled only once every command has:
	// full parity images, partial-parity frames (header sector + image,
	// the on-media layout ppengine.Append wants) and encoded
	// checksum-record sectors.
	images, frames, csRecs [][]byte

	// own holds the futures of the write's device commands and metadata
	// appends (subFut), at fixed addresses from write to write: the write
	// re-arms them instead of having each sub-IO allocate its completion.
	own  []*vclock.Future
	nOwn int // handed out to this write

	// Completion (completeWrite).
	lz           *logicalZone
	durable      bool
	prev, result *vclock.Future
	join         subJoin
	prevDone     func(error) // subscribed to prev; made once per state
}

func (v *Volume) getWriteState() *writeState {
	if ws := v.wsPool.get(); ws != nil {
		ws.plan = ws.plan[:0]
		ws.parity = ws.parity[:0]
		ws.pp = ws.pp[:0]
		ws.futs = ws.futs[:0]
		ws.pending = ws.pending[:0]
		ws.segs = ws.segs[:0]
		ws.nOwn = 0
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
	v.wsPool.put(ws)
}

// subFut returns the future for the write's next sub-IO: one of the
// state's, re-armed if an earlier write (over, as the state was pooled)
// completed it, or nil — the device allocates — when ws is nil.
func (ws *writeState) subFut() *vclock.Future {
	if ws == nil {
		return nil
	}
	if ws.nOwn == len(ws.own) {
		ws.own = append(ws.own, ws.v.clk.NewFuture())
	}
	f := ws.own[ws.nOwn]
	ws.nOwn++
	if f.Done() {
		f.Rearm()
	}
	return f
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
// per-stripe work: fold partial-stripe payloads into stripe buffers and
// record every device sub-IO, parity image and partial-parity log the
// write needs. Caller holds lz.mu.
//
// Full-stripe chunks bypass the stripe buffers: their parity and CRCs
// are computed straight from the caller's data, which remains valid
// until the write completes (SubmitWrite).
// Only the head stripe (which the zone's previous write left partial)
// and the tail stripe occupy a buffer, so stripeBuffersPerZone suffice.
func (v *Volume) planWriteLocked(ws *writeState, lz *logicalZone, off int64, data []byte) error {
	ss := int64(v.sectorSize)
	stripeSec := v.lt.stripeSectors()
	z := lz.idx
	fua := ws.flags&zns.FUA != 0 // the caller's flag, before a completed stripe adds it

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
			v.foldLocked(buf, chunk)
			buf.fua = buf.fua || fua
		}

		v.planDataLocked(ws, z, s, inStripe, chunk)

		pDev := v.lt.parityDev(z, s)
		switch {
		case buf == nil || buf.fill == stripeSec:
			// Stripe complete: one full parity unit plus the CRC row.
			// FUA-acked sectors in the buffer make the write FUA: their
			// partial-parity records are their only durable redundancy
			// until the parity unit is, and the next parity roll-over's
			// checkpoint drops them (it covers buffered stripes only).
			// On the FIFO write pipe a FUA parity unit is on media
			// before that checkpoint is.
			if buf != nil && buf.fua {
				ws.flags |= zns.FUA
			}
			v.stats.fullParityWrites.Add(1)
			ws.plan = append(ws.plan, plannedIO{
				dev: pDev, pba: v.lt.parityPBA(z, s), isParity: true, s: s,
			})
			var src []byte
			if buf == nil {
				src = chunk
			}
			ws.parity = append(ws.parity, parityTask{
				planIdx: len(ws.plan) - 1, s: s, buf: buf, src: src,
			})
		default:
			// Stripe still partial: log partial parity for the region
			// this write affected (§5.1). The log goes to the device
			// that will eventually hold the stripe's parity (Table 1);
			// if that device is dead the data units carry the write.
			if v.mdm(pDev) != nil {
				v.stats.partialParityLogs.Add(1)
				ws.pp = append(ws.pp, ppTask{s: s, buf: buf, a: inStripe, b: inStripe + n})
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
// payload and CRC row the plan needs. Caller holds lz.mu: the stripe
// buffers it reads are the zone's.
func (v *Volume) computeWrite(ws *writeState) {
	ss := int64(v.sectorSize)
	su := v.lt.su
	suBytes := su * ss
	gen := v.Generation(ws.z)

	for i := range ws.parity {
		t := &ws.parity[i]
		out := reuseBuf(&ws.images, i, int(suBytes))
		row := ws.crcs[:0]
		if t.buf != nil {
			// Completed buffered stripe: its running parity is the image
			// and its unit CRCs were taken as the chunks were folded in;
			// every unit is su long now, so the parity's CRC follows from
			// theirs. The image is swapped out of the buffer, which takes
			// the state's idle one in exchange (no command holds it:
			// states are pooled only once every command has completed).
			ws.images[i], t.buf.par = t.buf.par, out
			out = ws.images[i]
			row = append(append(row, t.buf.crcs...), parity.XORCRC(t.buf.crcs, int(suBytes), parity.Castagnoli))
		} else {
			// Completed stripe from the caller's data, one fused pass
			// (parity.XORCRCInto): XOR the D units into the parity image
			// and accumulate the D+1 CRCs of the checksum row while each
			// block is cache-hot.
			srcs := ws.srcs[:0]
			for u := 0; u < v.lt.d; u++ {
				srcs = append(srcs, t.src[int64(u)*suBytes:int64(u+1)*suBytes])
			}
			ws.srcs = srcs
			for u := 0; u <= v.lt.d; u++ {
				row = append(row, 0)
			}
			parity.XORCRCInto(out, srcs, row, parity.Castagnoli)
		}
		ws.plan[t.planIdx].data = out
		ws.crcs = row
		// Scrub reads a row only once the stripe is below submittedWP.
		v.setStripeChecksums(ws.z, t.s, row)
	}
	// The zone's checksum run goes to the log whole when this write is FUA
	// or fills the zone, else in full records only (Preflush: runWrite).
	ws.pending = v.takeRun(ws.pending, ws.z, ws.end, ws.flags != 0 || ws.full, &ws.csRecs)

	for i, t := range ws.pp {
		// The image is copied from the running parity straight into its
		// frame, behind the header sector issuePendingMD fills in. The write's
		// regions lie inside the stripe's written prefix, where par is
		// valid.
		regions, n := v.lt.intraRegions(t.a, t.b)
		total := regions[0].b - regions[0].a + regions[1].b - regions[1].a // an unused interval is empty
		frame := reuseBuf(&ws.frames, i, int((1+total)*ss))
		pos := ss
		for _, r := range regions[:n] {
			pos += int64(copy(frame[pos:], t.buf.par[r.a*ss:r.b*ss]))
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

// submitWriteLocked (phase 3) issues the plan (submitPlanLocked),
// recycles the completed stripes' buffers, and advances the submitted
// write pointer. Caller holds lz.mu.
func (v *Volume) submitWriteLocked(ws *writeState, lz *logicalZone) {
	z := lz.idx
	v.submitPlanLocked(ws, lz)

	// Recycle buffers of completed stripes: their payload is on the
	// devices now (writes take effect at submit).
	for i := range ws.parity {
		t := &ws.parity[i]
		if t.buf != nil {
			delete(lz.active, t.s)
			t.buf.stripe = -1
			t.buf.fill = 0
			lz.free = append(lz.free, t.buf)
			// The stripe's full parity is on media: its partial-parity
			// state is dead. (A pp append still in flight for this stripe
			// may slip past this and linger live; the zone-full sweep
			// below and zone reset/finish reclaim such strays.)
			v.slots.StripeClosed(z, t.s)
		}
	}
	lz.submittedWP = ws.end
	if ws.full {
		// Every stripe of the zone is complete: sweep all PP state.
		v.slots.ZoneReset(z)
		v.closeZoneSlot(lz)
	}
}

// submitPlanLocked sends ws.plan to the devices, one device at a time:
// entries to the same device at physically adjacent addresses merge into
// one vectored write command, burned address ranges (below the device's
// write pointer, §5.2) split off into relocation records in ws.pending,
// the bytes sent are charged to the WA categories, and each device gets
// one ledger entry. Failed devices are skipped (degraded write). Caller
// holds lz.mu.
func (v *Volume) submitPlanLocked(ws *writeState, lz *logicalZone) {
	tbl := v.loadDevs()
	z := lz.idx
	ss := int64(v.sectorSize)
	var dataB, parityB int64 // WA category bytes actually sent to devices

	fua := ws.flags&zns.FUA != 0
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
			devEnd = max(devEnd, pba+int64(len(data))/ss)
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
}

// flushRun issues the accumulated run as one device command (vectored
// when it merged more than one sub-IO) and returns the reset scratch.
func (v *Volume) flushRun(ws *writeState, d *zns.Device, dev int, start int64, segs [][]byte) [][]byte {
	switch len(segs) {
	case 0:
		return segs
	case 1:
		child := ws.sp.Child(obs.OpDevWrite, dev, start, int64(len(segs[0])))
		ws.futs = append(ws.futs, subIO{dev: dev, fut: d.WriteSpan(child, ws.subFut(), start, segs[0], ws.flags)})
	default:
		v.stats.coalescedSubWrites.Add(int64(len(segs) - 1))
		var bytes int64
		for _, s := range segs {
			bytes += int64(len(s))
		}
		child := ws.sp.Child(obs.OpDevWrite, dev, start, bytes)
		ws.futs = append(ws.futs, subIO{dev: dev, fut: d.WritevSpan(child, ws.subFut(), start, segs, ws.flags)})
	}
	return segs[:0]
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

	// pp is a partial-parity image to persist instead of a direct
	// metadata append (hasPP marks it set, and rec unused; the struct is
	// embedded by value to keep the hot path allocation-free).
	hasPP bool
	pp    ppengine.Append
}

// issuePendingMD performs the deferred metadata appends, appending their
// completion futures — own's (nil: allocated per append) — to futs and
// recording in each entry the device sector its append ended at, for the
// ledger. flags is the FUA bit of the triggering write:
// a FUA write's appends (partial parity, checksums, relocated data) are
// FUA like its data. The device table is loaded once for the whole batch.
// Each append gets an OpMDAppend child of sp.
//
// A partial-parity image goes to the zraid slot table when the array has
// one and the device table says it is whole, and to the §5.1 log
// otherwise, which is also where it goes when the table has no room. A
// slot write is accounted here as appendEncoded accounts a logged image:
// WA charge, EvPartialParity event and the raizn.pp.write crash point.
func (v *Volume) issuePendingMD(sp *obs.Span, own *writeState, pending []pendingMD, futs []subIO, flags zns.Flag) []subIO {
	if len(pending) == 0 {
		return futs
	}
	tbl := v.loadDevs()
	for i := range pending {
		p := &pending[i]
		if p.hasPP {
			a := p.pp
			a.Span = sp
			a.Flags = int(flags)
			a.Fut = own.subFut()
			f, pba, n, noSlot := v.slots.Persist(a, tbl.degraded < 0)
			if noSlot {
				f, p.end = v.logPartialParity(a)
			} else if n > 0 {
				z := int(pba / v.lt.physZoneSize)
				v.accountMDBytes(recPartialParity, 1, n-1)
				v.recordMDEvent(a.Dev, z, recPartialParity, 1, n-1)
				v.fireHook("raizn.pp.write", a.Dev, z, pba)
				p.end = pba + n
			}
			if f != nil {
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
		fut, pba, err := m.appendEncoded(child, own.subFut(), p.rec.typ, buf, flags)
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
				dev: p.dev, data: p.rec.payload,
			}, p.isParity, p.s)
		}
		if p.rec.typ == recChecksums {
			v.stats.checksumRecords.Add(1)
		}
		p.end = pba + p.rec.sectors(v.sectorSize)
		futs = append(futs, subIO{dev: p.dev, fut: fut})
	}
	return futs
}

// persistRuns appends every zone's pending checksum run with flags and
// returns futs with the appends' completions added: a Preflush write or a
// flush does so before it flushes the devices. Each run is entered in its
// own zone's ledger and counts as the zone's unpublished append until it
// is, so a durable write of the zone that finds the run taken still
// flushes for it (publishWrite).
func (v *Volume) persistRuns(sp *obs.Span, futs []subIO, flags zns.Flag) []subIO {
	var pending []pendingMD
	for z, lz := range v.zones {
		lz.mu.Lock()
		if n := len(pending); !lz.resetting {
			if pending = v.takeRun(pending, z, lz.submittedWP, true, nil); len(pending) > n {
				lz.unpublished++
			}
		}
		lz.mu.Unlock()
	}
	futs = v.issuePendingMD(sp, nil, pending, futs, flags)
	for i, j := 0, 0; i < len(pending); i = j {
		for j = i + 1; j < len(pending) && pending[j].z == pending[i].z; j++ {
		}
		lz := v.zones[pending[i].z]
		lz.mu.Lock()
		v.publishLocked(lz, pending[i:j], flags&zns.FUA != 0)
		lz.mu.Unlock()
	}
	return futs
}

// logPartialParity appends the image in a's frame to the parity metadata
// log of a.Dev (§5.1): it encodes the record header into the frame's header
// sector and appends the frame as it stands. It returns the append's
// completion and the device sector it ends at; (nil, 0) when the device
// has failed.
func (v *Volume) logPartialParity(a ppengine.Append) (*vclock.Future, int64) {
	m := v.mdm(a.Dev)
	if m == nil {
		return nil, 0 // device failed: degraded
	}
	ss := v.sectorSize
	rec := record{
		typ:      recPartialParity,
		startLBA: a.StartLBA,
		endLBA:   a.EndLBA,
		gen:      a.Gen,
		payload:  a.Frame[ss:],
	}
	rec.encodeInto(a.Frame[:ss])
	child := a.Span.Child(obs.OpMDAppend, a.Dev, a.StartLBA, int64(len(rec.payload)))
	fut, pba, err := m.appendEncoded(child, a.Fut, rec.typ, a.Frame, zns.Flag(a.Flags))
	if err != nil {
		child.End(err)
		if errors.Is(err, zns.ErrDeviceFailed) {
			v.noteDeviceError(a.Dev, err)
			return nil, 0
		}
		return v.clk.Completed(err), 0
	}
	return fut, pba + rec.sectors(ss)
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

// closeZoneSlot makes a filled or finished zone full, releasing its open
// slot if it held one. Caller holds lz.mu.
func (v *Volume) closeZoneSlot(lz *logicalZone) {
	v.mu.Lock()
	if lz.state == zns.ZoneOpen {
		v.openCount--
	}
	lz.state = zns.ZoneFull
	v.jrn.Record(obs.EvZoneState, obs.SrcLogical, lz.idx,
		int64(zns.ZoneFull), lz.wp, int64(v.openCount), int64(v.openCount))
	v.mu.Unlock()
}

// stripeBufferLocked returns the buffer accumulating stripe s, whose fill
// must be expectFill; a writer starting the stripe (expectFill == 0) takes
// one from the pool. Anything else — a fill that differs, a continued
// stripe without a buffer, an empty pool — means the buffers are out of
// sync with the zone's write pointer. Caller holds lz.mu.
func (v *Volume) stripeBufferLocked(lz *logicalZone, s int64, expectFill int64) (*stripeBuffer, error) {
	if b, ok := lz.active[s]; ok {
		if b.fill != expectFill {
			return nil, ErrInconsistent
		}
		return b, nil
	}
	if expectFill != 0 || len(lz.free) == 0 {
		return nil, ErrInconsistent
	}
	b := lz.free[len(lz.free)-1]
	lz.free = lz.free[:len(lz.free)-1]
	b.stripe = s
	b.fill = 0
	b.fua = false
	clear(b.crcs)
	lz.active[s] = b
	return b, nil
}

// foldLocked appends chunk, the stripe's next sectors, to buf. Units fill
// in order, so unit 0's bytes are copied into the running parity and every
// later unit's are XORed over a prefix unit 0 has already written; each
// piece is added to its unit's CRC while it is still hot. Caller holds
// lz.mu.
func (v *Volume) foldLocked(buf *stripeBuffer, chunk []byte) {
	ss, su := int64(v.sectorSize), v.lt.su
	for len(chunk) > 0 {
		u, intra := buf.fill/su, buf.fill%su
		n := min(su-intra, int64(len(chunk))/ss)
		piece, dst := chunk[:n*ss], buf.par[intra*ss:(intra+n)*ss]
		if u == 0 {
			copy(dst, piece)
		} else {
			parity.XORInto(dst, piece)
		}
		buf.crcs[u] = parity.UpdateCRC(buf.crcs[u], piece)
		buf.fill += n
		chunk = chunk[n*ss:]
	}
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

// parityImageLocked copies the stripe's running parity over the given
// intra-unit regions, which must lie in [0, min(fill, su)), into a single
// allocation. Caller holds lz.mu (it reads the live buffer).
func (v *Volume) parityImageLocked(buf *stripeBuffer, regions []intraInterval) []byte {
	ss := int64(v.sectorSize)
	var total int64
	for _, reg := range regions {
		total += reg.b - reg.a
	}
	out := make([]byte, 0, total*ss)
	for _, reg := range regions {
		out = append(out, buf.par[reg.a*ss:reg.b*ss]...)
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
	fs := v.flushPool.get()
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
	// The rows of everything the snapshot covers go to the logs before
	// the flushes below, which then cover them too.
	fs.futs = v.persistRuns(sp, fs.futs, 0)
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
		v.flushPool.put(fs)
		sp.End(err)
		result.Complete(err)
	})
	return result
}
