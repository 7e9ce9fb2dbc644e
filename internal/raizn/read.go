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
	if len(buf) == 0 || len(buf)%v.sectorSize != 0 {
		return v.clk.Completed(ErrUnaligned)
	}
	nSectors := int64(len(buf) / v.sectorSize)
	if lba < 0 || lba+nSectors > v.lt.numSectors() {
		return v.clk.Completed(ErrOutOfRange)
	}

	v.stats.logicalReadBytes.Add(int64(len(buf)))
	// Root span of the request; nil (and free) while tracing is disabled.
	sp := v.tracer.Begin(obs.OpRead, lba, int64(len(buf)))
	r := v.newReadJoin(sp)
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
			return v.clk.Completed(err)
		}
		pos += n
		out = out[n*ss:]
	}
	sp.Mark(obs.PhaseSubmit)

	return r.start()
}

// readJoin completes a read — or, with sc set, one reconstructed piece —
// once its sub-reads have (subJoin): in the completion callback of the last
// one, unless one failed. A healthy read of up to four device pieces is
// this one allocation: the result future, the sub-read list and the first
// piece's repair context are all held inline.
type readJoin struct {
	v       *Volume
	sp      *obs.Span
	futs    []subIO
	futBuf  [4]subIO      // futs' backing until a fifth sub-read
	repair  repairCtx     // the first piece's; later pieces allocate theirs
	repairs int           // repair contexts handed out
	dst     []byte        // reconstruction target and
	sc      *reconScratch // survivors, for finishReconstruct
	result  vclock.Future
	join    subJoin
}

func (v *Volume) newReadJoin(sp *obs.Span) *readJoin {
	r := &readJoin{v: v, sp: sp}
	r.futs = r.futBuf[:0]
	v.clk.InitFuture(&r.result)
	return r
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
	r.join.wait(r.v.clk, r.futs, r)
	return &r.result
}

func (r *readJoin) finish() {
	var err error
	if r.sc != nil {
		err = r.v.finishReconstruct(r.dst, r.sc, r.futs)
	} else {
		err = r.v.awaitReads(r.futs) // none pending: parks only to repair
	}
	r.sp.End(err)
	r.result.Complete(err)
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
			if rerr := v.degradedReadPiece(nil, c.z, c.s, c.u, c.a, c.b, c.dst, c.wp).Wait(); rerr == nil {
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
		fut := v.degradedReadPiece(sp, z, s, u, a, b, dst, zoneWP)
		r.futs = append(r.futs, subIO{dev: dev, fut: fut})
		return nil
	}
	// Tag the device sub-reads with reconstruction context so a latent
	// sector error is transparently read-repaired in awaitReads.
	pre := len(r.futs)
	if err := v.readUnitPiece(sp, z, s, u, a, b, dst, &r.futs); err != nil {
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
func (v *Volume) readUnitPiece(sp *obs.Span, z int, s int64, u int, a, b int64, dst []byte, futs *[]subIO) error {
	ss := int64(v.sectorSize)
	lbaA := v.lt.stripeStart(z, s) + int64(u)*v.lt.su + a
	lbaB := lbaA + (b - a)

	type gap struct{ lo, hi int64 } // LBA ranges not covered by reloc
	gaps := []gap{{lbaA, lbaB}}
	{
		v.relocMu.Lock()
		frags := v.reloc[z]
		for _, f := range frags {
			if f.endLBA <= lbaA || f.startLBA >= lbaB {
				continue
			}
			// Copy the overlapping part from the in-memory cache.
			lo, hi := max(f.startLBA, lbaA), min(f.endLBA, lbaB)
			copy(dst[(lo-lbaA)*ss:(hi-lbaA)*ss], f.data[(lo-f.startLBA)*ss:(hi-f.startLBA)*ss])
			// Remove [lo,hi) from the gaps.
			var ng []gap
			for _, g := range gaps {
				if hi <= g.lo || lo >= g.hi {
					ng = append(ng, g)
					continue
				}
				if g.lo < lo {
					ng = append(ng, gap{g.lo, lo})
				}
				if hi < g.hi {
					ng = append(ng, gap{hi, g.hi})
				}
			}
			gaps = ng
		}
		v.relocMu.Unlock()
	}

	dev := v.lt.dataDev(z, s, u)
	d := v.devForZone(dev, z)
	if d == nil {
		return ErrInconsistent // caller checked liveness
	}
	for _, g := range gaps {
		intraLo := a + (g.lo - lbaA)
		pba := int64(z)*v.lt.physZoneSize + s*v.lt.su + intraLo
		out := dst[(g.lo-lbaA)*ss : (g.hi-lbaA)*ss]
		child := sp.Child(obs.OpDevRead, dev, pba, int64(len(out)))
		*futs = append(*futs, subIO{dev: dev, fut: d.ReadSpan(child, pba, out)})
	}
	return nil
}

// degradedReadPiece reconstructs intra offsets [a, b) of the missing data
// unit u from the stripe buffer (partial stripes) or from parity plus the
// surviving units (complete stripes).
func (v *Volume) degradedReadPiece(sp *obs.Span, z int, s int64, u int, a, b int64, dst []byte, zoneWP int64) *vclock.Future {
	v.stats.degradedReads.Add(1)
	ss := int64(v.sectorSize)
	lz := v.zones[z]

	// Partial tail stripes live in a stripe buffer; serve from memory.
	lz.mu.Lock()
	if buf, ok := lz.active[s]; ok {
		base := int64(u) * v.lt.su * ss
		copy(dst, buf.data[base+a*ss:base+b*ss])
		lz.mu.Unlock()
		return v.clk.Completed(nil)
	}
	lz.mu.Unlock()

	// Complete stripe (or finished zone): reconstruct from media.
	stripeSec := v.lt.stripeSectors()
	g := zoneWP - s*stripeSec
	if g < 0 {
		g = 0
	}
	if g > stripeSec {
		g = stripeSec
	}
	fills := v.lt.unitFills(g)
	if fills[u] <= a {
		// The missing unit was never written here: zeroes.
		for i := range dst {
			dst[i] = 0
		}
		return v.clk.Completed(nil)
	}

	r := v.newReadJoin(nil)
	sc, err := v.submitReconstruct(sp, z, s, u, a, b, fills, dst, &r.futs)
	if err != nil {
		return v.clk.Completed(err)
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
	if sc, ok := v.reconPool.Get().(*reconScratch); ok {
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

// submitReconstruct issues the device reads that rebuild intra offsets
// [a, b) of data unit u of stripe s, whose unit fill levels are fills: the
// parity piece straight into dst, the written part of every other data
// unit into pooled scratch. finishReconstruct completes the job.
func (v *Volume) submitReconstruct(sp *obs.Span, z int, s int64, u int, a, b int64, fills []int64, dst []byte, futs *[]subIO) (*reconScratch, error) {
	if err := v.readParityPiece(sp, z, s, a, b, dst, futs); err != nil {
		return nil, err
	}
	sc := v.getReconScratch()
	for u2 := 0; u2 < v.lt.d; u2++ {
		hi := min(fills[u2], b)
		if u2 == u || hi <= a {
			continue
		}
		if err := v.readUnitPiece(sp, z, s, u2, a, hi, v.scratchPiece(sc, hi-a), futs); err != nil {
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
	v.reconPool.Put(sc)
	return err
}

// readParityPiece reads intra offsets [a, b) of the parity unit of stripe
// s, honoring relocated parity; each device sub-read becomes an OpDevRead
// child of sp. A relocated parity fragment may cover only part of the unit
// (a burn-split relocates just the burned prefix; the remainder was written
// in place), so the uncovered intra ranges are still read from the parity
// device.
func (v *Volume) readParityPiece(sp *obs.Span, z int, s int64, a, b int64, dst []byte, futs *[]subIO) error {
	ss := int64(v.sectorSize)
	type gap struct{ lo, hi int64 } // intra ranges not covered by reloc
	gaps := []gap{{a, b}}
	v.relocMu.Lock()
	if m := v.parityReloc[z]; m != nil {
		if e, ok := m[s]; ok {
			lo := e.startLBA - v.lt.stripeStart(z, s)
			hi := lo + int64(len(e.data))/ss
			cl, ch := max(lo, a), min(hi, b)
			if cl < ch {
				copy(dst[(cl-a)*ss:(ch-a)*ss], e.data[(cl-lo)*ss:(ch-lo)*ss])
				var ng []gap
				for _, g := range gaps {
					if ch <= g.lo || cl >= g.hi {
						ng = append(ng, g)
						continue
					}
					if g.lo < cl {
						ng = append(ng, gap{g.lo, cl})
					}
					if ch < g.hi {
						ng = append(ng, gap{ch, g.hi})
					}
				}
				gaps = ng
			}
		}
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
		child := sp.Child(obs.OpDevRead, dev, pba, int64(len(out)))
		*futs = append(*futs, subIO{dev: dev, fut: d.ReadSpan(child, pba, out)})
	}
	return nil
}
