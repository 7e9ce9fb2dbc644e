package raizn

import (
	"bytes"
	"errors"
	"fmt"

	"raizn/internal/obs"
	"raizn/internal/parity"
	"raizn/internal/zns"
)

// Scrub support: stripe-granular verify/repair primitives driven by the
// background scrubber (internal/scrub). A scrub pass walks every
// complete stripe below each logical zone's write pointer, reads the D
// data units plus parity, and checks two things: XOR consistency
// (parity really is the XOR of the data) and, where a checksum row
// exists (see checksum.go), per-unit CRC32-C integrity.
//
// Repair policy — scrub must never "repair" good data into bad:
//
//   - XOR consistent, no checksum row: the stripe predates checksum
//     coverage (or its row was lost with a dead device). Adopt: record
//     the observed CRCs so future rot is attributable.
//   - Checksum row present, exactly one unit's CRC mismatching: the
//     unit is reconstructed from the other units, the reconstruction is
//     verified against the stored CRC, and — zones being immutable —
//     the corrected unit is relocated through the §5.2 relocation map.
//   - A unit that fails with a latent read error is reconstructed the
//     same way (classic RAID latent-error recovery); when a checksum
//     row exists the surviving units and the reconstruction are
//     CRC-verified first, so rot elsewhere in the stripe cannot poison
//     the repair.
//   - Anything else (two bad units, XOR mismatch with no row to
//     attribute it, CRCs that contradict the reconstruction) is counted
//     unrepairable and the data is left untouched.

// StripeScrubResult reports what one ScrubStripe call did.
type StripeScrubResult struct {
	BytesRead      int64 // payload bytes read off the devices
	Skipped        bool  // stripe not scrubbable now (partial, empty, racing reset, degraded array)
	Verified       bool  // stripe proven consistent (possibly after repair)
	Adopted        bool  // checksum row recorded for a previously uncovered stripe
	Mismatch       bool  // XOR or CRC verification failed
	ReadErrors     int   // units that failed with a latent read error
	RepairedData   bool  // a data unit was reconstructed and relocated
	RepairedParity bool  // the parity unit was reconstructed and relocated
	Unrepaired     bool  // damage detected but not safely attributable/repairable
}

// StripesPerZone returns the number of stripes a logical zone holds.
func (v *Volume) StripesPerZone() int64 { return v.lt.stripesPerZone() }

// ScrubProgress returns, per logical zone, one past the index of the
// highest stripe verified since the progress was last reset.
func (v *Volume) ScrubProgress() []int64 {
	v.scrubMu.Lock()
	defer v.scrubMu.Unlock()
	out := make([]int64, len(v.scrubPos))
	copy(out, v.scrubPos)
	return out
}

// ResetScrubProgress zeroes the per-zone scrub positions (start of a
// new scrub pass).
func (v *Volume) ResetScrubProgress() {
	v.scrubMu.Lock()
	for z := range v.scrubPos {
		v.scrubPos[z] = 0
	}
	v.scrubMu.Unlock()
}

func (v *Volume) setScrubPos(z int, s int64) {
	v.scrubMu.Lock()
	if s+1 > v.scrubPos[z] {
		v.scrubPos[z] = s + 1
	}
	v.scrubMu.Unlock()
}

// ScrubStripe verifies and repairs stripe s of logical zone z. It
// returns an error only for environmental failures (dead device
// mid-scrub, IO beyond the fault model); verification outcomes are
// reported in the result.
func (v *Volume) ScrubStripe(z int, s int64) (StripeScrubResult, error) {
	var res StripeScrubResult
	if z < 0 || z >= v.lt.numZones || s < 0 || s >= v.lt.stripesPerZone() {
		return res, ErrOutOfRange
	}
	skip := func() (StripeScrubResult, error) {
		res.Skipped = true
		v.stats.scrubSkippedStripes.Add(1)
		return res, nil
	}
	// While degraded one unit per stripe is already being served by
	// reconstruction; there is no redundancy left to verify against.
	if v.Degraded() >= 0 || v.ReadOnly() {
		return skip()
	}
	gen0 := v.Generation(z)
	lz := v.zones[z]
	lz.mu.Lock()
	stable := !lz.resetting && (s+1)*v.lt.stripeSectors() <= lz.submittedWP
	lz.mu.Unlock()
	if !stable {
		return skip()
	}

	// Root span of the scrub request; nil while tracing is disabled.
	sp := v.tracer.Begin(obs.OpScrub, v.lt.stripeStart(z, s), v.lt.stripeSectors()*int64(v.sectorSize))

	// Read the full stripe: D data units + parity (slot d).
	ss := int64(v.sectorSize)
	su := v.lt.su
	imgs := make([][]byte, v.lt.n)
	var unreadable []int
	for u := 0; u <= v.lt.d; u++ {
		imgs[u] = make([]byte, su*ss)
		if err := v.unitImage(sp, z, s, u, 0, su, imgs[u]); err != nil {
			if v.Generation(z) != gen0 {
				sp.End(nil)
				return skip() // the zone was reset under us
			}
			if errors.Is(err, zns.ErrReadMedium) {
				unreadable = append(unreadable, u)
				res.ReadErrors++
				continue
			}
			sp.End(err)
			return res, err
		}
		res.BytesRead += su * ss
	}
	sp.Mark(obs.PhasePlan)
	if v.Generation(z) != gen0 {
		sp.End(nil)
		return skip()
	}

	crcs := v.StripeChecksums(z, s)
	switch len(unreadable) {
	case 0:
		v.verifyStripeImages(z, s, gen0, imgs, crcs, &res)
	case 1:
		v.repairUnreadableUnit(z, s, unreadable[0], imgs, &res)
	default:
		// Multiple unreadable units: beyond single-parity redundancy.
		v.scrubFlag(&res, true, true)
	}
	sp.Mark(obs.PhaseCompute)

	if res.Verified {
		v.stats.scrubbedStripes.Add(1)
		v.setScrubPos(z, s)
	}
	v.fireHook("raizn.scrub.stripe", obs.SrcLogical, z, s)
	sp.End(nil)
	return res, nil
}

// verifyStripeImages checks a fully readable stripe and repairs at most
// one CRC-attributed bad unit.
func (v *Volume) verifyStripeImages(z int, s int64, gen uint64, imgs [][]byte, crcs []uint32, res *StripeScrubResult) {
	// One fused pass over the stripe (parity.XORCRCInto): XOR-accumulate
	// every unit image into acc while computing each unit's CRC32-C with
	// the block still cache-hot. XOR consistency = acc all-zero; the
	// per-unit CRCs serve both mismatch attribution and adoption.
	acc := make([]byte, len(imgs[0]))
	obsCRC := make([]uint32, len(imgs)+1)
	parity.XORCRCInto(acc, imgs, obsCRC, parity.Castagnoli)
	xorOK := allZero(acc)
	if crcs == nil {
		if xorOK {
			// Consistent but uncovered: adopt the observed checksums.
			v.adoptChecksums(z, s, gen, obsCRC[:len(imgs)])
			res.Adopted = true
			res.Verified = true
			return
		}
		// Inconsistent with nothing to attribute the damage: repairing
		// would guess which unit is wrong. Leave the data alone.
		v.scrubFlag(res, true, true)
		return
	}

	var bad []int
	for u := range imgs {
		if obsCRC[u] != crcs[u] {
			bad = append(bad, u)
		}
	}
	switch {
	case len(bad) == 0 && xorOK:
		res.Verified = true
	case len(bad) != 1:
		// Every unit matches its CRC yet the XOR fails, so the row itself
		// is inconsistent (e.g. adopted from a previously damaged
		// stripe), or several units are bad. Not attributable.
		v.scrubFlag(res, true, true)
	default:
		v.scrubFlag(res, true, false)
		v.noteCorruption(v.unitDevice(z, s, bad[0]))
		v.repairUnit(z, s, bad[0], imgs, res)
	}
}

// repairUnreadableUnit reconstructs the single unit that failed with a
// latent read error from the surviving units.
func (v *Volume) repairUnreadableUnit(z int, s int64, u int, imgs [][]byte, res *StripeScrubResult) {
	v.noteCorruption(v.unitDevice(z, s, u))
	// Verify the survivors first: silent rot in a survivor would poison
	// the reconstruction.
	for u2, img := range imgs {
		if u2 != u && v.checkUnit(z, s, u2, img) != nil {
			v.scrubFlag(res, true, true)
			return
		}
	}
	v.repairUnit(z, s, u, imgs, res)
}

// repairUnit reconstructs unit u from the other units into u's own image
// buffer (its bytes, rotten or unread, are not needed again) and checks it
// against its recorded CRC, if the stripe has a row: a reconstruction that
// contradicts it means more than one unit is wrong in a way the CRCs
// cannot pin down. Otherwise the unit is relocated and the repair
// counted.
func (v *Volume) repairUnit(z int, s int64, u int, imgs [][]byte, res *StripeScrubResult) {
	var buf [8][]byte
	want := imgs[u]
	parity.EncodeInto(want, append(append(buf[:0], imgs[:u]...), imgs[u+1:]...)...)
	if v.checkUnit(z, s, u, want) != nil {
		v.scrubFlag(res, !res.Mismatch, true) // a read error's first mismatch
		return
	}
	if err := v.relocateRepairedUnit(z, s, u, want); err != nil {
		v.scrubFlag(res, false, true)
		return
	}
	if u == v.lt.d {
		res.RepairedParity = true
		v.stats.scrubRepairedParity.Add(1)
	} else {
		res.RepairedData = true
		v.stats.scrubRepairedData.Add(1)
	}
	res.Verified = true
}

// CheckRedundancy checks, on a whole array, every complete stripe below
// each logical zone's write pointer: every device yields its piece (read
// through the relocation overlays), the parity unit is the XOR of the
// data units, and each unit matches the stripe's checksum row where it
// has one. It returns the first violation, or nil. The array must be
// quiet: a stripe written or reset during the check may be reported.
func (v *Volume) CheckRedundancy() error {
	if dev := v.Degraded(); dev >= 0 {
		return fmt.Errorf("raizn: redundancy check: device %d is missing", dev)
	}
	imgs := make([][]byte, v.lt.n+1) // data units, parity, and their XOR
	for u := range imgs {
		imgs[u] = make([]byte, v.lt.su*int64(v.sectorSize))
	}
	d, xor := v.lt.d, imgs[v.lt.n]
	for z, lz := range v.zones {
		lz.mu.Lock()
		wp := lz.wp
		lz.mu.Unlock()
		for s := int64(0); (s+1)*v.lt.stripeSectors() <= wp; s++ {
			for u := 0; u <= d; u++ {
				if err := v.unitImage(nil, z, s, u, 0, v.lt.su, imgs[u]); err != nil {
					return fmt.Errorf("raizn: redundancy check: zone %d stripe %d unit %d (device %d): %w",
						z, s, u, v.unitDevice(z, s, u), err)
				}
			}
			if parity.EncodeInto(xor, imgs[:d]...); !bytes.Equal(xor, imgs[d]) {
				return fmt.Errorf("raizn: redundancy check: zone %d stripe %d: parity is not the XOR of the data", z, s)
			}
			for u := 0; u <= d; u++ {
				if err := v.checkUnit(z, s, u, imgs[u]); err != nil {
					return fmt.Errorf("raizn: redundancy check: zone %d stripe %d unit %d: %w", z, s, u, err)
				}
			}
		}
	}
	return nil
}

// scrubFlag records, in res and the volume's counters, that the stripe
// failed verification (mismatch) and that its damage stays unrepaired.
func (v *Volume) scrubFlag(res *StripeScrubResult, mismatch, unrepaired bool) {
	if mismatch {
		res.Mismatch = true
		v.stats.scrubMismatches.Add(1)
	}
	if unrepaired {
		res.Unrepaired = true
		v.stats.scrubUnrepaired.Add(1)
	}
}

// allZero reports whether every byte of b is zero.
func allZero(b []byte) bool {
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}

// adoptChecksums records the observed CRC row of an XOR-consistent but
// uncovered stripe, in memory and in the metadata log.
func (v *Volume) adoptChecksums(z int, s int64, gen uint64, crcs []uint32) {
	v.setStripeChecksums(z, s, crcs)
	m := v.mdm(v.checksumDev(z))
	if m == nil {
		return
	}
	fut, _, err := m.append(&record{
		typ:    recChecksums,
		gen:    gen,
		inline: encodeChecksums(z, s, crcs),
	}, 0)
	if err == nil {
		v.stats.checksumRecords.Add(1)
		_ = fut.Wait()
	}
}

// relocateRepairedUnit persists a corrected unit through the §5.2
// relocation machinery: the physical sectors are pinned by zone
// immutability, so the payload goes to the owning device's metadata
// zone and shadows the arithmetic location from the relocation map.
func (v *Volume) relocateRepairedUnit(z int, s int64, u int, data []byte) error {
	isParity := u == v.lt.d
	dev := v.unitDevice(z, s, u)
	var lba int64
	if !isParity {
		lba = v.lt.stripeStart(z, s) + int64(u)*v.lt.su
	}
	p := v.relocationRecord(dev, data, lba, isParity, z, s)
	return v.awaitSubIOs(v.issuePendingMD(nil, nil, []pendingMD{p}, nil, 0))
}
