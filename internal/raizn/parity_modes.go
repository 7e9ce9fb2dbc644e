package raizn

import "raizn/internal/parity"

// This file holds the recovery helpers of the two §5.4 alternatives to
// partial-parity logging, selected by Config.ParityMode (their write side
// is the zrwa plan entries in write.go and Volume.logPartialParity):
//
//   - PPInlineMeta: the 32-byte record header rides in per-block logical
//     metadata instead of occupying a 4 KiB header sector, shrinking
//     every partial-parity log by one sector ("the actual header
//     information could be written into the metadata descriptor instead,
//     reducing write amplification and increasing the performance of
//     small writes").
//   - PPZRWA: partial parity is written (and re-written) in place at its
//     final location through the device's Zone Random Write Area,
//     eliminating parity logs and their metadata-zone churn ("ZRWA …
//     could potentially be used to allow some parity updates to take
//     place in-place and avoid the overhead of the parity logs").

// parityPrefixLen reports, for ZRWA mode, how many parity prefix sectors of
// stripe s are on the parity device (its physical fill past the stripe's
// parity offset).
func (v *Volume) parityPrefixLen(z int, s int64) int64 {
	dev := v.lt.parityDev(z, s)
	d := v.devs[dev]
	if d == nil {
		return 0
	}
	physZone := z
	zd := d.Zone(physZone)
	fill := zd.WP - d.ZoneStart(physZone)
	return clampI64(fill-s*v.lt.su, 0, v.lt.su)
}

// reconstructUnitRange repairs intra offsets [a, b) of the single short
// data unit u of stripe s from the (possibly prefix-only) parity plus the
// surviving units, writing the result at the owning device's write
// pointer. Generalizes reconstructUnitTail for ZRWA prefix parity.
func (v *Volume) reconstructUnitRange(z int, s int64, u int, a, b int64, fills []int64) error {
	if b <= a {
		return nil
	}
	ss := int64(v.sectorSize)
	n := b - a
	img := make([]byte, n*ss)
	var futs []subIO
	if err := v.readParityPiece(nil, z, s, a, b, img, &futs); err != nil {
		return err
	}
	var others [][]byte
	for u2 := 0; u2 < v.lt.d; u2++ {
		if u2 == u {
			continue
		}
		hi := min(fills[u2], b)
		if hi <= a {
			continue
		}
		ob := make([]byte, (hi-a)*ss)
		if err := v.readUnitPiece(nil, z, s, u2, a, hi, ob, &futs); err != nil {
			return err
		}
		others = append(others, ob)
	}
	if err := v.awaitReads(futs); err != nil {
		return err
	}
	for _, o := range others {
		parity.XORInto(img[:len(o)], o)
	}
	dev := v.lt.dataDev(z, s, u)
	d := v.devs[dev]
	if d == nil {
		return ErrInconsistent
	}
	pba := int64(z)*v.lt.physZoneSize + s*v.lt.su + a
	return d.Write(pba, img, 0).Wait()
}
