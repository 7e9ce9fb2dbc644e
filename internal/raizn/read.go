package raizn

import (
	"errors"

	"raizn/internal/obs"
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
// caller owns (nil: a new one), and returning it. A read rejected before
// anything is issued (unaligned, out of range) completes fut with the
// error before returning; one rejected while it is planned zone by zone
// (past a later zone's write pointer) completes fut with the error once
// the device reads already issued for it have, since they fill buf. Only
// accepted reads count as logical read bytes. Once fut has completed, the
// caller may re-arm it for its next read.
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
			r.err = err
			return r.start()
		}
		pos += n
		out = out[n*ss:]
	}
	v.stats.logicalReadBytes.Add(int64(len(buf)))
	sp.Mark(obs.PhaseSubmit)

	return r.start()
}

// readJoin completes a read — or one reconstructed piece, whose device
// reads XOR into its target as xr's job — once its sub-reads have
// (subJoin): in the completion callback of the last one, unless one
// failed. A read whose planning failed part way (err) completes with that
// error, still only once the sub-reads it issued have. Joins are pooled
// (readPool) and go back before the result completes, and a reconstructed
// piece completes one of its read's own futures: a read of up to four
// pieces, degraded or not, allocates nothing when its caller supplies the
// result future (SubmitReadTo).
type readJoin struct {
	v *Volume
	subReads
	futBuf  [4]subIO // futs' backing until a fifth sub-read
	sp      *obs.Span
	repair  repairCtx // the first piece's; later pieces allocate theirs
	repairs int       // repair contexts handed out
	rebuilt repairCtx // a reconstructed piece's unit and range (checkRebuilt)
	fills   []int64   // a reconstruction's unit fills (openParity)
	xr      zns.XORRead
	err     error // the planning error of a rejected read
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
	r.repair, r.repairs, r.rebuilt = repairCtx{}, 0, repairCtx{}
	r.sp, r.result, r.err = nil, nil, nil
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

// read issues a read of d (the array's device dev) into out and adds it;
// with x set, the read's bytes are XORed into x's target at byte offset at
// (out's own offset there) instead.
func (rs *subReads) read(sp *obs.Span, dev int, d *zns.Device, pba int64, out []byte, x *zns.XORRead, at int64) {
	f := rs.next(d.Clock())
	if x == nil {
		f = d.ReadSpan(sp, f, pba, out)
	} else {
		f = d.ReadXORSpan(sp, f, pba, x, int(at), len(out))
	}
	rs.futs = append(rs.futs, subIO{dev: dev, fut: f})
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
	err := r.err
	if err == nil {
		err = r.v.awaitReads(r.futs) // none pending: parks only to repair
	}
	if c := &r.rebuilt; err == nil && c.dst != nil {
		err = r.v.checkRebuilt(c.z, c.s, c.u, c.a, c.b, c.dst)
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
	if err := v.readUnitPiece(sp, z, s, u, a, b, dst, &r.subReads, nil); err != nil {
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
// sub-read becomes an OpDevRead child of sp. With x set, dst is the start
// of x's target and the piece is XORed into it, overlays included.
func (v *Volume) readUnitPiece(sp *obs.Span, z int, s int64, u int, a, b int64, dst []byte, rs *subReads, x *zns.XORRead) error {
	ss := int64(v.sectorSize)
	lbaA := v.lt.stripeStart(z, s) + int64(u)*v.lt.su + a
	gaps := []gap{{lbaA, lbaA + (b - a)}} // LBA ranges not covered by reloc
	v.relocMu.Lock()
	for _, f := range v.reloc[z] {
		gaps = overlay(gaps, dst, x, lbaA, f.startLBA, f.data, ss)
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
		rs.read(sp.Child(obs.OpDevRead, dev, pba, int64(len(out))), dev, d, pba, out, x, (g.lo-lbaA)*ss)
	}
	return nil
}

// gap is a range of sectors a piece still has to read from its device.
type gap struct{ lo, hi int64 }

// overlay copies the part of a relocated fragment (data, whose first
// sector is start) that falls inside the piece dst (whose first sector is
// base) into dst, or XORs it in through x when x is set, and returns gaps
// less that part.
func overlay(gaps []gap, dst []byte, x *zns.XORRead, base, start int64, data []byte, ss int64) []gap {
	lo := max(start, base)
	hi := min(start+int64(len(data))/ss, base+int64(len(dst))/ss)
	if lo >= hi {
		return gaps
	}
	if frag := data[(lo-start)*ss : (hi-start)*ss]; x == nil {
		copy(dst[(lo-base)*ss:(hi-base)*ss], frag)
	} else {
		x.Fold(int((lo-base)*ss), frag)
	}
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
// complete one is on media. A whole unit that disagrees with its checksum
// row fails the piece (checkRebuilt, in the join's finish).
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
	if err := v.submitReconstruct(sp, z, s, u, a, b, r.fills, dst, open, &r.xr, &r.subReads); err != nil {
		return completed(fut, err)
	}
	r.rebuilt = repairCtx{z: z, s: s, u: u, a: a, b: b, dst: dst}
	return r.start()
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

// submitReconstruct rebuilds intra offsets [a, b) of unit u of stripe s,
// whose data unit fill levels are fills, into dst as one reconstruction
// read x: dst starts as the open stripe's running parity when parityInDst
// (openParity put it there) and u is a data unit, as zeroes otherwise; the
// parity piece (for a data unit, unless parityInDst) and the written part
// of every other data unit are XORed in by their device reads, relocated
// fragments by Fold at submit. x is sealed once every read is issued: dst
// holds the result when the reads have completed.
func (v *Volume) submitReconstruct(sp *obs.Span, z int, s int64, u int, a, b int64, fills []int64, dst []byte, parityInDst bool, x *zns.XORRead, rs *subReads) error {
	x.Start(dst, !parityInDst || u == v.lt.d)
	if u != v.lt.d && !parityInDst {
		if err := v.readParityPiece(sp, z, s, a, b, dst, rs, x); err != nil {
			return err
		}
	}
	ss := int64(v.sectorSize)
	for u2 := 0; u2 < v.lt.d; u2++ {
		hi := min(fills[u2], b)
		if u2 == u || hi <= a {
			continue
		}
		if err := v.readUnitPiece(sp, z, s, u2, a, hi, dst[:(hi-a)*ss], rs, x); err != nil {
			return err
		}
	}
	x.Seal()
	return nil
}

// reconstruct rebuilds intra offsets [a, b) of unit u of stripe s in zone
// z (the parity unit when u == d) from the other units into dst, against
// the zone's write pointer, and waits for it; a whole unit that disagrees
// with its checksum row fails (checkRebuilt).
func (v *Volume) reconstruct(z int, s int64, u int, a, b int64, dst []byte) error {
	lz := v.zones[z]
	lz.mu.Lock()
	g := lz.wp - s*v.lt.stripeSectors()
	lz.mu.Unlock()
	r := v.newReadJoin(nil, nil)
	var open bool
	r.fills, open = v.openParity(lz, s, a, b, g, dst, r.fills)
	if err := v.submitReconstruct(nil, z, s, u, a, b, r.fills, dst, open, &r.xr, &r.subReads); err != nil {
		return err
	}
	err := v.awaitReads(r.futs)
	v.putReadJoin(r)
	if err == nil {
		err = v.checkRebuilt(z, s, u, a, b, dst)
	}
	return err
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
		err = v.readParityPiece(sp, z, s, a, b, dst, &rs, nil)
	} else {
		err = v.readUnitPiece(sp, z, s, u, a, b, dst, &rs, nil)
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
// s, honoring relocated parity, into dst (XORed into x's target, which
// dst starts, when x is set); each device sub-read becomes an OpDevRead
// child of sp. A relocated parity fragment may cover only part of the unit
// (a burn-split relocates just the burned prefix; the remainder was written
// in place), so the uncovered intra ranges are still read from the parity
// device.
func (v *Volume) readParityPiece(sp *obs.Span, z int, s int64, a, b int64, dst []byte, rs *subReads, x *zns.XORRead) error {
	ss := int64(v.sectorSize)
	gaps := []gap{{a, b}} // intra ranges not covered by reloc
	v.relocMu.Lock()
	if e, ok := v.parityReloc[z][s]; ok {
		gaps = overlay(gaps, dst, x, a, e.startLBA-v.lt.stripeStart(z, s), e.data, ss)
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
		rs.read(sp.Child(obs.OpDevRead, dev, pba, int64(len(out))), dev, d, pba, out, x, (g.lo-a)*ss)
	}
	return nil
}
