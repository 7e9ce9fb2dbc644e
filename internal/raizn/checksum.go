package raizn

import (
	"encoding/binary"
	"hash/crc32"
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
//     (zone % n), one small record per completed stripe at runtime and
//     packed per-zone records at metadata-GC checkpoint. At mount they
//     are replayed after generation counters, dropped when stale
//     (r.gen != zone gen), and clamped to the stripes below the
//     recovered write pointer.
//   - A zone reset clears its table entries; the generation bump
//     invalidates any stale records still in the logs.

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// recChecksums inline payload: zone(4) firstStripe(4) count(4) then
// count * n CRC32 values. The record is inline-only (no payload
// sectors), so one runtime record costs one metadata sector.
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

// clearZoneChecksums drops zone z's table after a reset.
func (v *Volume) clearZoneChecksums(z int) {
	v.csMu.Lock()
	v.cs[z] = nil
	v.csHave[z] = nil
	v.csMu.Unlock()
}

// clampChecksums drops coverage at and beyond stripe limit — used at
// mount when the recovered write pointer rolled back mid-stripe.
func (v *Volume) clampChecksums(z int, limit int64) {
	v.csMu.Lock()
	if v.csHave[z] != nil {
		for s := limit; s < int64(len(v.csHave[z])); s++ {
			v.csHave[z][s] = false
		}
	}
	v.csMu.Unlock()
}

// checksumDev returns the device whose general metadata log persists
// zone z's checksum records.
func (v *Volume) checksumDev(z int) int { return z % v.lt.n }

// checksumCheckpointRecords emits packed per-zone checksum records for
// the zones whose checksum device is dev, splitting rows across records
// when a zone's full table exceeds the inline limit.
func (v *Volume) checksumCheckpointRecords(dev int) []*record {
	var out []*record
	rowBytes := 4 * v.csSlots()
	maxRows := (maxInline - csHeaderBytes) / rowBytes
	if maxRows < 1 {
		maxRows = 1
	}
	v.csMu.Lock()
	for z := 0; z < v.lt.numZones; z++ {
		if v.checksumDev(z) != dev || v.csHave[z] == nil {
			continue
		}
		gen := v.gen[z]
		n := int64(v.csSlots())
		// Emit contiguous covered runs.
		for s := int64(0); s < int64(len(v.csHave[z])); {
			if !v.csHave[z][s] {
				s++
				continue
			}
			first := s
			for s < int64(len(v.csHave[z])) && v.csHave[z][s] && s-first < int64(maxRows) {
				s++
			}
			crcs := make([]uint32, (s-first)*n)
			copy(crcs, v.cs[z][first*n:s*n])
			out = append(out, &record{
				typ:    recChecksums,
				gen:    gen,
				inline: encodeChecksums(z, first, crcs),
			})
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

// crcOf returns the CRC32-C of a stripe-unit image.
func crcOf(b []byte) uint32 { return crc32.Checksum(b, crcTable) }
