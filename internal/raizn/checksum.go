package raizn

import (
	"encoding/binary"

	"raizn/internal/parity"
)

// Stripe-unit checksums make silent bit-rot *detectable*: parity alone
// can only say "some unit of this stripe is wrong" (XOR mismatch), not
// which one, and repairing the wrong unit would launder corruption into
// good data. RAIZN therefore keeps one CRC32-C per stripe unit — the D
// data units plus the parity unit — for every *complete* stripe.
//
// Coverage rules:
//
//   - CRCs cost no extra device reads: a stripe written through its
//     stripe buffer has each data unit's CRC taken as its chunks are
//     folded in and the parity's at completion; a stripe written whole
//     from the caller's data has all of them taken in the parity pass.
//   - Partial tail stripes are not covered: their content is still
//     mutable (the next write extends it) and protected by the stripe
//     buffer + partial-parity log instead. The scrubber skips them.
//   - Checksums persist as recChecksums metadata records on device
//     (zone % n). A completed stripe's row waits in the table behind the
//     zone's cursor (csNext) until the zone's data is made durable; then
//     the pending run goes to the log, one record per csRunRows rows
//     (takeRun; DESIGN.md's durability table says when). Metadata-GC
//     checkpoints pack every row and, once durable, move the cursors past
//     them. At mount they are replayed after generation counters,
//     dropped when stale (r.gen != zone gen), and clamped to the stripes
//     below the recovered write pointer, where each zone's cursor starts.
//   - A zone reset clears its table entries and its cursor; the
//     generation bump invalidates any stale records still in the logs.

// recChecksums inline payload: zone(4) firstStripe(4) count(4) then
// count * n CRC32 values. The record is inline-only (no payload
// sectors), so one record costs one metadata sector.
const csHeaderBytes = 12

func encodeChecksums(zone int, firstStripe int64, crcs []uint32) []byte {
	return encodeChecksumsInto(make([]byte, csHeaderBytes+4*len(crcs)), zone, firstStripe, crcs)
}

// encodeChecksumsInto encodes into the front of buf and returns that part.
func encodeChecksumsInto(buf []byte, zone int, firstStripe int64, crcs []uint32) []byte {
	buf = buf[:csHeaderBytes+4*len(crcs)]
	binary.LittleEndian.PutUint32(buf[0:4], uint32(zone))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(firstStripe))
	binary.LittleEndian.PutUint32(buf[8:12], uint32(len(crcs)))
	for i, c := range crcs {
		binary.LittleEndian.PutUint32(buf[csHeaderBytes+4*i:], c)
	}
	return buf
}

func decodeChecksums(inline []byte) (zone int, firstStripe int64, crcs []uint32, ok bool) {
	if len(inline) < csHeaderBytes {
		return 0, 0, nil, false
	}
	zone = int(binary.LittleEndian.Uint32(inline[0:4]))
	firstStripe = int64(binary.LittleEndian.Uint32(inline[4:8]))
	n := int(binary.LittleEndian.Uint32(inline[8:12]))
	if n < 0 || csHeaderBytes+4*n > len(inline) {
		return 0, 0, nil, false
	}
	crcs = make([]uint32, n)
	for i := range crcs {
		crcs[i] = binary.LittleEndian.Uint32(inline[csHeaderBytes+4*i:])
	}
	return zone, firstStripe, crcs, true
}

// csSlotParity is the per-stripe CRC slot of the parity unit; slots
// 0..d-1 hold the data units in stripe order.
func (v *Volume) csSlots() int { return v.lt.n }

// ensureCSLocked sizes zone z's checksum table. Caller holds csMu.
func (v *Volume) ensureCSLocked(z int) {
	if v.cs[z] == nil {
		stripes := v.lt.stripesPerZone()
		v.cs[z] = make([]uint32, stripes*int64(v.csSlots()))
		v.csHave[z] = make([]bool, stripes)
	}
}

// setStripeChecksums installs the CRC row of stripe s in zone z.
func (v *Volume) setStripeChecksums(z int, s int64, crcs []uint32) {
	v.csMu.Lock()
	defer v.csMu.Unlock()
	v.ensureCSLocked(z)
	copy(v.cs[z][s*int64(v.csSlots()):], crcs)
	v.csHave[z][s] = true
}

// StripeChecksums returns the recorded CRC row of stripe s in zone z
// (slots 0..d-1 data units, slot d parity), or nil if the stripe is not
// covered.
func (v *Volume) StripeChecksums(z int, s int64) []uint32 {
	v.csMu.Lock()
	defer v.csMu.Unlock()
	if v.cs[z] == nil || s < 0 || s >= int64(len(v.csHave[z])) || !v.csHave[z][s] {
		return nil
	}
	n := int64(v.csSlots())
	out := make([]uint32, n)
	copy(out, v.cs[z][s*n:])
	return out
}

// ChecksumCoverage returns how many stripes of zone z carry checksums.
func (v *Volume) ChecksumCoverage(z int) int64 {
	v.csMu.Lock()
	defer v.csMu.Unlock()
	var n int64
	for _, h := range v.csHave[z] {
		if h {
			n++
		}
	}
	return n
}

// clearZoneChecksums drops zone z's table and pending run after a reset.
func (v *Volume) clearZoneChecksums(z int) {
	v.csMu.Lock()
	v.cs[z] = nil
	v.csHave[z] = nil
	v.csNext[z] = 0
	v.csMu.Unlock()
}

// clampChecksums drops coverage at and beyond stripe limit — used at
// mount when the recovered write pointer rolled back mid-stripe — and
// starts the zone's cursor there: the mount's general checkpoint carries
// every row below it.
func (v *Volume) clampChecksums(z int, limit int64) {
	v.csMu.Lock()
	if v.csHave[z] != nil {
		for s := limit; s < int64(len(v.csHave[z])); s++ {
			v.csHave[z][s] = false
		}
	}
	v.csNext[z] = limit
	v.csMu.Unlock()
}

// csRunRows is how many rows one recChecksums record holds: 202 at n = 5.
func (v *Volume) csRunRows() int64 {
	return max(1, int64((maxInline-csHeaderBytes)/(4*v.csSlots())))
}

// takeRun moves zone z's pending checksum run — its rows from the cursor
// up to the last stripe complete below wp — to pending, one recChecksums
// append per csRunRows rows, each encoded into a sector of bufs (fresh
// ones when bufs is nil), and advances the cursor. With whole unset only
// full records go. The rows of a failed checksum device are passed over;
// a later checkpoint packs them.
func (v *Volume) takeRun(pending []pendingMD, z int, wp int64, whole bool, bufs *[][]byte) []pendingMD {
	gen := v.Generation(z) // before csMu, which nests inside v.mu
	v.csMu.Lock()
	defer v.csMu.Unlock()
	lo, hi, per := v.csNext[z], wp/v.lt.stripeSectors(), v.csRunRows()
	if !whole && hi > lo {
		hi -= (hi - lo) % per
	}
	if hi <= lo {
		return pending
	}
	v.csNext[z] = hi
	dev := v.checksumDev(z)
	if v.mdm(dev) == nil {
		return pending
	}
	for i := 0; lo < hi; i++ {
		var sec []byte
		if bufs != nil {
			sec = reuseBuf(bufs, i, v.sectorSize)
		} else {
			sec = make([]byte, v.sectorSize)
		}
		rows := min(per, hi-lo)
		pending = append(pending, pendingMD{dev: dev, z: z, rec: v.checksumRecordLocked(sec, z, gen, lo, rows), enc: sec})
		lo += rows
	}
	return pending
}

// checksumRecordLocked encodes the recChecksums record of zone z's rows
// [first, first+rows) into the sector sec. Caller holds csMu.
func (v *Volume) checksumRecordLocked(sec []byte, z int, gen uint64, first, rows int64) record {
	n := int64(v.csSlots())
	rec := record{typ: recChecksums, gen: gen,
		inline: encodeChecksumsInto(sec[headerBytes:], z, first, v.cs[z][first*n:(first+rows)*n])}
	rec.encodeInto(sec)
	return rec
}

// checksumsCheckpointed moves each zone's cursor past the rows that recs,
// checkpoint records now durable, carry — unless the zone was reset since.
func (v *Volume) checksumsCheckpointed(recs []*record) {
	v.mu.Lock() // the generations hold still
	defer v.mu.Unlock()
	v.csMu.Lock()
	defer v.csMu.Unlock()
	for _, r := range recs {
		if r.typ.base() != recChecksums {
			continue
		}
		if z, first, crcs, ok := decodeChecksums(r.inline); ok && r.gen == v.gen[z] && first <= v.csNext[z] {
			v.csNext[z] = max(v.csNext[z], first+int64(len(crcs)/v.csSlots()))
		}
	}
}

// checksumDev returns the device whose general metadata log persists
// zone z's checksum records.
func (v *Volume) checksumDev(z int) int { return z % v.lt.n }

// checksumCheckpointRecords emits packed per-zone checksum records for
// the zones whose checksum device is dev, splitting rows across records
// when a zone's full table exceeds the inline limit.
func (v *Volume) checksumCheckpointRecords(dev int) []*record {
	var out []*record
	maxRows := v.csRunRows()
	v.csMu.Lock()
	for z := 0; z < v.lt.numZones; z++ {
		if v.checksumDev(z) != dev || v.csHave[z] == nil {
			continue
		}
		gen := v.gen[z]
		// Emit contiguous covered runs.
		for s := int64(0); s < int64(len(v.csHave[z])); {
			if !v.csHave[z][s] {
				s++
				continue
			}
			first := s
			for s < int64(len(v.csHave[z])) && v.csHave[z][s] && s-first < maxRows {
				s++
			}
			rec := v.checksumRecordLocked(make([]byte, v.sectorSize), z, gen, first, s-first)
			out = append(out, &rec)
		}
	}
	v.csMu.Unlock()
	return out
}

// applyChecksumRecord replays one recChecksums record at mount. Caller
// guarantees generation counters are already recovered; stale-generation
// records are dropped.
func (v *Volume) applyChecksumRecord(r *record) {
	z, first, crcs, ok := decodeChecksums(r.inline)
	if !ok || z < 0 || z >= v.lt.numZones {
		return
	}
	if r.gen != v.gen[z] {
		return // pre-reset record: the zone was reset since
	}
	n := int64(v.csSlots())
	rows := int64(len(crcs)) / n
	stripes := v.lt.stripesPerZone()
	v.csMu.Lock()
	v.ensureCSLocked(z)
	for i := int64(0); i < rows; i++ {
		s := first + i
		if s < 0 || s >= stripes {
			continue
		}
		copy(v.cs[z][s*n:], crcs[i*n:(i+1)*n])
		v.csHave[z][s] = true
	}
	v.csMu.Unlock()
}

// DeviceErrorCounters returns the cumulative read-error and corruption
// counts attributed to device i by foreground reads and scrub passes.
func (v *Volume) DeviceErrorCounters(i int) (readErrors, corruptions int64) {
	if i < 0 || i >= len(v.devErrs) {
		return 0, 0
	}
	return v.devErrs[i].readErrors.Load(), v.devErrs[i].corruptions.Load()
}

// noteReadMedium counts a latent read error against device i.
func (v *Volume) noteReadMedium(i int) {
	if i >= 0 && i < len(v.devErrs) {
		v.devErrs[i].readErrors.Add(1)
	}
}

// noteCorruption counts a detected checksum mismatch against device i.
func (v *Volume) noteCorruption(i int) {
	if i >= 0 && i < len(v.devErrs) {
		v.devErrs[i].corruptions.Add(1)
	}
}

// checkUnit compares the CRC32-C of img, the whole of unit u of stripe s in
// zone z (the parity unit when u == d), with the stripe's checksum row:
// ErrChecksumMismatch when they differ, nil when they agree or the stripe
// has no row. It allocates nothing.
func (v *Volume) checkUnit(z int, s int64, u int, img []byte) error {
	v.csMu.Lock()
	have := v.csHave[z] != nil && s < int64(len(v.csHave[z])) && v.csHave[z][s]
	var want uint32
	if have {
		want = v.cs[z][s*int64(v.csSlots())+int64(u)]
	}
	v.csMu.Unlock()
	if have && crcOf(img) != want {
		return ErrChecksumMismatch
	}
	return nil
}

// checkRebuilt checks a reconstruction of intra offsets [a, b) of unit u
// against the stripe's checksum row (checkUnit) and counts a mismatch. Only
// a whole unit can be checked: a part of one passes unchecked, and so does
// everything on devices that drop payloads (their reads are zeroes).
func (v *Volume) checkRebuilt(z int, s int64, u int, a, b int64, dst []byte) error {
	if v.discard || a != 0 || b != v.lt.su {
		return nil
	}
	err := v.checkUnit(z, s, u, dst)
	if err != nil {
		v.stats.reconstructMismatches.Add(1)
	}
	return err
}

// crcOf returns the CRC32-C of a stripe-unit image.
func crcOf(b []byte) uint32 { return parity.UpdateCRC(0, b) }
