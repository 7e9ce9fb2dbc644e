package raizn

import (
	"errors"

	"raizn/internal/obs"
	"raizn/internal/parity"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// SubmitRead fills buf starting at lba. Reads may span stripes and
// logical zones. Reads of a failed device's stripe units are served by
// reconstruction (degraded read, §4.2); ranges relocated by crash
// recovery are served from the relocation map (§5.2).
func (v *Volume) SubmitRead(lba int64, buf []byte) *vclock.Future {
	return v.SubmitReadTo(nil, lba, buf)
}

// SubmitReadTo is SubmitRead completing fut, an incomplete future the
// caller owns (nil: a new one), and returning it; a rejected read
// completes fut with the error before returning. Once fut has completed,
// the caller may re-arm it for its next read.
func (v *Volume) SubmitReadTo(fut *vclock.Future, lba int64, buf []byte) *vclock.Future {
	if fut == nil {
		fut = v.clk.NewFuture()
	}
	if len(buf) == 0 || len(buf)%v.sectorSize != 0 {
		return completed(fut, ErrUnaligned)
	}
	nSectors := int64(len(buf) / v.sectorSize)
	if lba < 0 || lba+nSectors > v.lt.numSectors() {
		return completed(fut, ErrOutOfRange)
	}

	v.stats.logicalReadBytes.Add(int64(len(buf)))
	// Root span of the request; nil (and free) while tracing is disabled.
	sp := v.tracer.Begin(obs.OpRead, lba, int64(len(buf)))
	r := v.newReadJoin(sp, fut)
	ss := int64(v.sectorSize)
	pos := lba
	out := buf
	for len(out) > 0 {
		z := v.lt.zoneOf(pos)
		zoneEnd := v.lt.zoneStart(z) + v.lt.zoneSectors()
		n := zoneEnd - pos
		if avail := int64(len(out)) / ss; n > avail {
			n = avail
		}
		if err := v.readZonePortion(sp, z, pos, out[:n*ss], r); err != nil {
			sp.End(err)
			return completed(fut, err)
		}
		pos += n
		out = out[n*ss:]
	}
	sp.Mark(obs.PhaseSubmit)

	return r.start()
}

// readJoin completes a read — or, with sc set, one reconstructed piece —
// once its sub-reads have (subJoin): in the completion callback of the last
// one, unless one failed. Joins are pooled (readPool) and go back before the
// result completes, and a reconstructed piece completes one of its read's
// own futures: a read of up to four pieces, degraded or not, allocates
// nothing when its caller supplies the result future (SubmitReadTo).
type readJoin struct {
	v *Volume
	subReads
	futBuf  [4]subIO // futs' backing until a fifth sub-read
	sp      *obs.Span
	repair  repairCtx     // the first piece's; later pieces allocate theirs
	repairs int           // repair contexts handed out
	fills   []int64       // a reconstruction's unit fills (openParity),
	dst     []byte        // its target and
	sc      *reconScratch // survivors, for finishReconstruct
	result  *vclock.Future
	join    subJoin
}

func (v *Volume) newReadJoin(sp *obs.Span, result *vclock.Future) *readJoin {
	r := v.readPool.get()
	if r == nil {
		r = &readJoin{v: v}
		r.futs = r.futBuf[:0]
	}
	r.sp, r.result = sp, result
	return r
}

// putReadJoin returns a finished join to the pool. Every sub-read has
// completed and been counted, so nothing can wait on its own futures any
// more: they are re-armed for the next read.
func (v *Volume) putReadJoin(r *readJoin) {
	for i := range r.own[:r.nOwn] {
		r.own[i].Rearm()
	}
	clear(r.futs)
	r.futs, r.nOwn = r.futs[:0], 0
	r.repair, r.repairs = repairCtx{}, 0
	r.sp, r.dst, r.sc, r.result = nil, nil, nil, nil
	v.readPool.put(r)
}

// subReads collects a request's device sub-reads. The futures of the first
// four are held inline, so that they cost no allocation; later ones let the
// device allocate theirs.
type subReads struct {
	futs []subIO
	own  [4]vclock.Future
	nOwn int // own futures handed out
}

// next returns the next own future, bound to clk, or nil — the callee
// allocates — once all four are handed out.
func (rs *subReads) next(clk *vclock.Clock) *vclock.Future {
	if rs.nOwn == len(rs.own) {
		return nil
	}
	f := &rs.own[rs.nOwn]
	rs.nOwn++
	clk.InitFuture(f)
	return f
}

// read issues a read of d (the array's device dev) into out and adds it.
func (rs *subReads) read(sp *obs.Span, dev int, d *zns.Device, pba int64, out []byte) {
	rs.futs = append(rs.futs, subIO{dev: dev, fut: d.ReadSpan(sp, rs.next(d.Clock()), pba, out)})
}

// newRepair returns a repair context for the next planned piece.
func (r *readJoin) newRepair() *repairCtx {
	r.repairs++
	if r.repairs == 1 {
		return &r.repair
	}
	return new(repairCtx)
}

// start waits for the planned sub-reads and returns the read's future.
func (r *readJoin) start() *vclock.Future {
	res := r.result // r may be back in the pool once wait returns
	r.join.wait(r.v.clk, r.futs, r)
	return res
}

func (r *readJoin) finish() {
	var err error
	if r.sc != nil {
		err = r.v.finishReconstruct(r.dst, r.sc, r.futs)
	} else {
		err = r.v.awaitReads(r.futs) // none pending: parks only to repair
	}
	v, sp, res := r.v, r.sp, r.result
	v.putReadJoin(r)
	sp.End(err)
	res.Complete(err)
}

// awaitReads waits for read sub-IOs; a device death mid-read is returned
// as an error (the caller should retry, which will take the degraded
// path).
func (v *Volume) awaitReads(futs []subIO) error {
	var firstErr error
	for _, s := range futs {
		err := s.fut.Wait()
		if err == nil {
			continue
		}
		v.noteDeviceError(s.dev, err)
		if errors.Is(err, zns.ErrReadMedium) && s.repair != nil && v.Degraded() < 0 {
			// Latent sector error on a foreground read: reconstruct the
			// whole piece from parity + surviving units (§4.2 machinery).
			c := s.repair
			if rerr := v.degradedReadPiece(nil, nil, c.z, c.s, c.u, c.a, c.b, c.dst, c.wp).Wait(); rerr == nil {
				v.stats.readErrorRepairs.Add(1)
				continue
			}
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// readZonePortion plans the sub-reads for [pos, pos+len) inside zone z.
func (v *Volume) readZonePortion(sp *obs.Span, z int, pos int64, out []byte, r *readJoin) error {
	lz := v.zones[z]
	lz.mu.Lock()
	// Read against the submitted write pointer: sectors a concurrent
	// write has claimed but not yet submitted to the devices are not
	// readable (their payload may still be mid-pipeline).
	wp := lz.submittedWP
	state := lz.state
	lz.mu.Unlock()

	ss := int64(v.sectorSize)
	off := pos - v.lt.zoneStart(z)
	n := int64(len(out)) / ss
	if off+n > wp && state != zns.ZoneFull {
		return ErrReadBeyondWP
	}

	// Zero-fill anything beyond the write pointer (finished zones).
	if off+n > wp {
		zeroFrom := wp - off
		if zeroFrom < 0 {
			zeroFrom = 0
		}
		tail := out[zeroFrom*ss:]
		for i := range tail {
			tail[i] = 0
		}
		if zeroFrom == 0 {
			return nil
		}
		n = zeroFrom
		out = out[:n*ss]
	}

	// Split into per-stripe-unit pieces.
	stripeSec := v.lt.stripeSectors()
	for n > 0 {
		s := off / stripeSec
		inStripe := off % stripeSec
		u := int(inStripe / v.lt.su)
		intra := inStripe % v.lt.su
		pieceLen := v.lt.su - intra
		if pieceLen > n {
			pieceLen = n
		}
		if err := v.readPiece(sp, z, s, u, intra, intra+pieceLen, out[:pieceLen*ss], wp, r); err != nil {
			return err
		}
		out = out[pieceLen*ss:]
		off += pieceLen
		n -= pieceLen
	}
	return nil
}

// readPiece reads intra offsets [a, b) of data unit u in stripe s of zone
// z into dst, choosing between the normal, relocated, and degraded paths.
func (v *Volume) readPiece(sp *obs.Span, z int, s int64, u int, a, b int64, dst []byte, zoneWP int64, r *readJoin) error {
	dev := v.lt.dataDev(z, s, u)
	if v.devForZone(dev, z) == nil {
		fut := v.degradedReadPiece(sp, r.next(v.clk), z, s, u, a, b, dst, zoneWP)
		r.futs = append(r.futs, subIO{dev: dev, fut: fut})
		return nil
	}
	// Tag the device sub-reads with reconstruction context so a latent
	// sector error is transparently read-repaired in awaitReads.
	pre := len(r.futs)
	if err := v.readUnitPiece(sp, z, s, u, a, b, dst, &r.subReads); err != nil {
		return err
	}
	ctx := r.newRepair()
	*ctx = repairCtx{z: z, s: s, u: u, a: a, b: b, dst: dst, wp: zoneWP}
	for i := pre; i < len(r.futs); i++ {
		r.futs[i].repair = ctx
	}
	return nil
}

// readUnitPiece reads from the unit's owning (live) device, overlaying
// any relocated fragments that shadow parts of the range. Each device
// sub-read becomes an OpDevRead child of sp.
func (v *Volume) readUnitPiece(sp *obs.Span, z int, s int64, u int, a, b int64, dst []byte, rs *subReads) error {
	ss := int64(v.sectorSize)
	lbaA := v.lt.stripeStart(z, s) + int64(u)*v.lt.su + a
	gaps := []gap{{lbaA, lbaA + (b - a)}} // LBA ranges not covered by reloc
	v.relocMu.Lock()
	for _, f := range v.reloc[z] {
		gaps = overlay(gaps, dst, lbaA, f.startLBA, f.data, ss)
	}
	v.relocMu.Unlock()

	dev := v.lt.dataDev(z, s, u)
	d := v.devForZone(dev, z)
	if d == nil {
		return ErrInconsistent // caller checked liveness
	}
	for _, g := range gaps {
		intraLo := a + (g.lo - lbaA)
		pba := int64(z)*v.lt.physZoneSize + s*v.lt.su + intraLo
		out := dst[(g.lo-lbaA)*ss : (g.hi-lbaA)*ss]
		rs.read(sp.Child(obs.OpDevRead, dev, pba, int64(len(out))), dev, d, pba, out)
	}
	return nil
}

// gap is a range of sectors a piece still has to read from its device.
type gap struct{ lo, hi int64 }

// overlay copies the part of a relocated fragment (data, whose first
// sector is start) that falls inside the piece dst (whose first sector is
// base) into dst, and returns gaps less that part.
func overlay(gaps []gap, dst []byte, base, start int64, data []byte, ss int64) []gap {
	lo := max(start, base)
	hi := min(start+int64(len(data))/ss, base+int64(len(dst))/ss)
	if lo >= hi {
		return gaps
	}
	copy(dst[(lo-base)*ss:(hi-base)*ss], data[(lo-start)*ss:(hi-start)*ss])
	var left []gap
	for _, g := range gaps {
		if hi <= g.lo || lo >= g.hi {
			left = append(left, g)
			continue
		}
		if g.lo < lo {
			left = append(left, gap{g.lo, lo})
		}
		if hi < g.hi {
			left = append(left, gap{hi, g.hi})
		}
	}
	return left
}

// degradedReadPiece reconstructs intra offsets [a, b) of the missing data
// unit u from parity plus the surviving units, completing fut (nil: a new
// future): the parity of an open stripe is its buffer's, that of a
// complete one is on media.
func (v *Volume) degradedReadPiece(sp *obs.Span, fut *vclock.Future, z int, s int64, u int, a, b int64, dst []byte, zoneWP int64) *vclock.Future {
	v.stats.degradedReads.Add(1)
	if fut == nil {
		fut = v.clk.NewFuture()
	}
	r := v.newReadJoin(nil, fut)
	var open bool
	r.fills, open = v.openParity(v.zones[z], s, a, b, zoneWP-s*v.lt.stripeSectors(), dst, r.fills)
	if r.fills[u] <= a {
		// The missing unit was never written here: zeroes.
		clear(dst)
		v.putReadJoin(r)
		return completed(fut, nil)
	}
	sc, err := v.submitReconstruct(sp, z, s, u, a, b, r.fills, dst, open, &r.subReads)
	if err != nil {
		return completed(fut, err)
	}
	r.dst, r.sc = dst, sc
	return r.start()
}

// reconScratch is the survivor scratch of one reconstruction: the pieces
// of the surviving data units, read beside the parity piece that goes
// straight into the caller's buffer. Pooled per volume (reconPool); every
// backing buffer is a stripe unit long, so any piece fits any of them.
type reconScratch struct {
	bufs      [][]byte // backing buffers, kept across uses
	survivors [][]byte // this reconstruction's pieces, prefixes of bufs
}

func (v *Volume) getReconScratch() *reconScratch {
	if sc := v.reconPool.get(); sc != nil {
		return sc
	}
	return new(reconScratch)
}

// scratchPiece returns the scratch's next buffer, n sectors long.
func (v *Volume) scratchPiece(sc *reconScratch, n int64) []byte {
	i := len(sc.survivors)
	if i == len(sc.bufs) {
		sc.bufs = append(sc.bufs, make([]byte, v.lt.su*int64(v.sectorSize)))
	}
	sc.survivors = append(sc.survivors, sc.bufs[i][:n*int64(v.sectorSize)])
	return sc.survivors[i]
}

// openParity sizes a reconstruction of intra offsets [a, b) of stripe s,
// whose fill on media is g (clamped to the stripe), returning the unit
// fills in fills' backing array. An open stripe's parity is its buffer's
// running parity: it is copied into dst, and the fills are the buffer's,
// which that parity covers.
func (v *Volume) openParity(lz *logicalZone, s, a, b, g int64, dst []byte, fills []int64) ([]int64, bool) {
	open := false
	lz.mu.Lock()
	if buf, ok := lz.active[s]; ok {
		ss := int64(v.sectorSize)
		copy(dst, buf.par[a*ss:b*ss])
		g, open = buf.fill, true
	}
	lz.mu.Unlock()
	return v.lt.unitFillsInto(fills, clampI64(g, 0, v.lt.stripeSectors())), open
}

// submitReconstruct issues the device reads that rebuild intra offsets
// [a, b) of unit u of stripe s, whose data unit fill levels are fills: for
// a data unit the parity piece straight into dst (unless parityInDst:
// openParity put it there), for the parity unit (u == d) nothing, dst
// cleared; and the written part of every other data unit into pooled
// scratch. finishReconstruct completes the job.
func (v *Volume) submitReconstruct(sp *obs.Span, z int, s int64, u int, a, b int64, fills []int64, dst []byte, parityInDst bool, rs *subReads) (*reconScratch, error) {
	if u == v.lt.d {
		clear(dst)
	} else if !parityInDst {
		if err := v.readParityPiece(sp, z, s, a, b, dst, rs); err != nil {
			return nil, err
		}
	}
	sc := v.getReconScratch()
	for u2 := 0; u2 < v.lt.d; u2++ {
		hi := min(fills[u2], b)
		if u2 == u || hi <= a {
			continue
		}
		if err := v.readUnitPiece(sp, z, s, u2, a, hi, v.scratchPiece(sc, hi-a), rs); err != nil {
			return nil, err
		}
	}
	return sc, nil
}

// finishReconstruct waits for the reads submitReconstruct issued, XORs the
// survivors into dst (a unit tail that was never written counts as zeroes)
// and returns the scratch to the pool.
func (v *Volume) finishReconstruct(dst []byte, sc *reconScratch, futs []subIO) error {
	err := v.awaitReads(futs)
	if err == nil {
		parity.ReconstructInto(dst, sc.survivors...)
	}
	sc.survivors = sc.survivors[:0]
	v.reconPool.put(sc)
	return err
}

// reconstruct rebuilds intra offsets [a, b) of unit u of stripe s in zone
// z (the parity unit when u == d) from the other units into dst, against
// the zone's write pointer, and waits for it.
func (v *Volume) reconstruct(z int, s int64, u int, a, b int64, dst []byte) error {
	lz := v.zones[z]
	lz.mu.Lock()
	g := lz.wp - s*v.lt.stripeSectors()
	lz.mu.Unlock()
	fills, open := v.openParity(lz, s, a, b, g, dst, nil)
	var rs subReads
	sc, err := v.submitReconstruct(nil, z, s, u, a, b, fills, dst, open, &rs)
	if err != nil {
		return err
	}
	return v.finishReconstruct(dst, sc, rs.futs)
}

// unitImage fills dst with intra offsets [a, b) of unit u of stripe s in
// zone z (the parity unit when u == d): read through the relocation
// overlays when the unit's device is live for the zone, reconstructed
// otherwise. A read error is returned, not repaired.
func (v *Volume) unitImage(sp *obs.Span, z int, s int64, u int, a, b int64, dst []byte) error {
	if v.devForZone(v.unitDevice(z, s, u), z) == nil {
		return v.reconstruct(z, s, u, a, b, dst)
	}
	var rs subReads
	var err error
	if u == v.lt.d {
		err = v.readParityPiece(sp, z, s, a, b, dst, &rs)
	} else {
		err = v.readUnitPiece(sp, z, s, u, a, b, dst, &rs)
	}
	if err != nil {
		return err
	}
	return v.awaitReads(rs.futs)
}

// unitDevice maps a unit of stripe s (data unit index, or d for parity)
// to the owning device.
func (v *Volume) unitDevice(z int, s int64, u int) int {
	if u == v.lt.d {
		return v.lt.parityDev(z, s)
	}
	return v.lt.dataDev(z, s, u)
}

// readParityPiece reads intra offsets [a, b) of the parity unit of stripe
// s, honoring relocated parity; each device sub-read becomes an OpDevRead
// child of sp. A relocated parity fragment may cover only part of the unit
// (a burn-split relocates just the burned prefix; the remainder was written
// in place), so the uncovered intra ranges are still read from the parity
// device.
func (v *Volume) readParityPiece(sp *obs.Span, z int, s int64, a, b int64, dst []byte, rs *subReads) error {
	ss := int64(v.sectorSize)
	gaps := []gap{{a, b}} // intra ranges not covered by reloc
	v.relocMu.Lock()
	if e, ok := v.parityReloc[z][s]; ok {
		gaps = overlay(gaps, dst, a, e.startLBA-v.lt.stripeStart(z, s), e.data, ss)
	}
	v.relocMu.Unlock()
	if len(gaps) == 0 {
		return nil
	}

	dev := v.lt.parityDev(z, s)
	d := v.devForZone(dev, z)
	if d == nil {
		return ErrInconsistent // double failure
	}
	for _, g := range gaps {
		pba := v.lt.parityPBA(z, s) + g.lo
		out := dst[(g.lo-a)*ss : (g.hi-a)*ss]
		rs.read(sp.Child(obs.OpDevRead, dev, pba, int64(len(out))), dev, d, pba, out)
	}
	return nil
}
