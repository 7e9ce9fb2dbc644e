package raizn

// This file contains the arithmetic address translation at the heart of
// RAIZN (paper §4.1): logical zones are built from one physical zone per
// device, data is striped in stripe units across the D data slots of each
// stripe, and the parity slot rotates every stripe (and every zone, so
// zone-reset WAL placement also rotates, §5.2).
//
// All quantities are in sectors unless suffixed Bytes.

import "raizn/internal/zns"

// layout captures the immutable geometry of an array.
type layout struct {
	n  int   // total devices (D data + 1 parity per stripe)
	d  int   // data units per stripe
	su int64 // stripe unit size, in sectors

	physZoneSize int64 // device address-space stride of a physical zone
	physZoneCap  int64 // writable sectors per physical zone
	numZones     int   // logical zones (= physical data zones per device)
	mdZones      int   // reserved metadata zones per device (after data zones)
	ppZones      int   // reserved partial-parity zones per device (1 for the zraid engine, after md zones)
}

// stripeSectors returns the data sectors carried by one stripe.
func (l *layout) stripeSectors() int64 { return int64(l.d) * l.su }

// zoneSectors returns the logical zone capacity in sectors. The logical
// address space is dense: logical zone size equals its capacity.
func (l *layout) zoneSectors() int64 { return int64(l.d) * l.physZoneCap }

// stripesPerZone returns the number of stripes in a logical zone.
func (l *layout) stripesPerZone() int64 { return l.physZoneCap / l.su }

// numSectors returns the total logical capacity.
func (l *layout) numSectors() int64 { return int64(l.numZones) * l.zoneSectors() }

// zoneOf returns the logical zone containing lba.
func (l *layout) zoneOf(lba int64) int { return int(lba / l.zoneSectors()) }

// zoneStart returns the first LBA of logical zone z.
func (l *layout) zoneStart(z int) int64 { return int64(z) * l.zoneSectors() }

// parityDev returns the device holding the parity unit of stripe s in
// zone z. The rotation advances per stripe and per zone (left-symmetric,
// offset by zone so consecutive zones start their rotation on different
// devices).
func (l *layout) parityDev(z int, s int64) int {
	return l.n - 1 - int((s+int64(z))%int64(l.n))
}

// dataDev returns the device holding data unit u (0-based within the
// stripe) of stripe s in zone z.
func (l *layout) dataDev(z int, s int64, u int) int {
	return (l.parityDev(z, s) + 1 + u) % l.n
}

// unitOfDev is the inverse of dataDev: which data unit (0..d-1) does
// device dev hold in stripe s of zone z? Returns -1 if dev is the parity
// device.
func (l *layout) unitOfDev(z int, s int64, dev int) int {
	p := l.parityDev(z, s)
	if dev == p {
		return -1
	}
	return (dev - p - 1 + l.n) % l.n
}

// stripePiece returns which unit device dev holds of stripe s in zone z
// (a data unit, or d for the parity unit) and how many sectors of it are
// on media when the stripe's data fill is g (0 <= g <= stripeSectors): a
// data unit's fill, or for the parity unit su once the stripe is complete
// and, when the zone is sealed (finished), the prefix min(g, su) that
// FinishZone wrote. An open stripe's parity lives in its partial-parity images.
func (l *layout) stripePiece(z int, s int64, dev int, g int64, sealed bool) (unit int, sectors int64) {
	if u := l.unitOfDev(z, s, dev); u >= 0 {
		return u, min(max(g-int64(u)*l.su, 0), l.su)
	}
	switch {
	case g == l.stripeSectors():
		return l.d, l.su
	case sealed:
		return l.d, min(g, l.su)
	}
	return l.d, 0
}

// addr is a fully resolved physical location of a logical sector.
type addr struct {
	dev int   // device index
	pba int64 // absolute physical sector on that device
}

// locate translates a logical sector to its device and PBA.
func (l *layout) locate(lba int64) addr {
	z := l.zoneOf(lba)
	off := lba - l.zoneStart(z)
	s := off / l.stripeSectors()
	inStripe := off % l.stripeSectors()
	u := int(inStripe / l.su)
	intra := inStripe % l.su
	return addr{
		dev: l.dataDev(z, s, u),
		pba: int64(z)*l.physZoneSize + s*l.su + intra,
	}
}

// parityPBA returns the PBA of the parity unit of stripe s in zone z (on
// parityDev(z, s)).
func (l *layout) parityPBA(z int, s int64) int64 {
	return int64(z)*l.physZoneSize + s*l.su
}

// stripeOf returns the zone-relative stripe index of lba.
func (l *layout) stripeOf(lba int64) int64 {
	z := l.zoneOf(lba)
	return (lba - l.zoneStart(z)) / l.stripeSectors()
}

// stripeStart returns the first LBA of stripe s in zone z.
func (l *layout) stripeStart(z int, s int64) int64 {
	return l.zoneStart(z) + s*l.stripeSectors()
}

// metadataZones is the number of physical zones reserved per device for
// metadata: one for general metadata, one for partial parity and one swap
// zone for metadata GC (§4.3).
const metadataZones = 3

// mdZoneIndex returns the physical zone index of the i-th reserved
// metadata zone (0 <= i < mdZones), which live after the data zones.
func (l *layout) mdZoneIndex(i int) int { return l.numZones + i }

// deviceLayout is one device's layout on its own, enough to find its
// metadata zones (between the data zones and the zraid engine's PP zone)
// before the array is assembled. cfg has its defaults applied.
func deviceLayout(dc zns.Config, cfg Config) *layout {
	pp := cfg.ppZones()
	return &layout{
		n: 1, d: 1, su: cfg.StripeUnitSectors,
		physZoneSize: dc.ZoneSize, physZoneCap: dc.ZoneCap,
		numZones: dc.NumZones - metadataZones - pp,
		mdZones:  metadataZones, ppZones: pp,
	}
}

// intraInterval is a half-open interval of intra-stripe-unit offsets.
type intraInterval struct{ a, b int64 }

// intraRegions returns, by value, the n <= 2 intervals of intra-unit
// offsets whose parity bytes are affected by a write covering zone-relative
// sectors [start, end) of a single stripe. If the write covers a full
// stripe-unit's worth of offsets the whole [0, su) is affected.
func (l *layout) intraRegions(start, end int64) (regs [2]intraInterval, n int) {
	if end-start >= l.su {
		return [2]intraInterval{{0, l.su}}, 1
	}
	a := start % l.su
	b := end % l.su
	switch {
	case a < b:
		return [2]intraInterval{{a, b}}, 1
	case b == 0:
		return [2]intraInterval{{a, l.su}}, 1
	}
	// Wraps across a unit boundary.
	return [2]intraInterval{{a, l.su}, {0, b}}, 2
}

// unitFills returns, for a stripe with g data sectors written (0 <= g <=
// stripeSectors), the fill level of each data unit: units 0..j-1 full,
// unit j partially filled, the rest empty.
func (l *layout) unitFills(g int64) []int64 { return l.unitFillsInto(nil, g) }

// unitFillsInto is unitFills in fills' backing array, which it allocates
// only when that is shorter than a stripe's data units.
func (l *layout) unitFillsInto(fills []int64, g int64) []int64 {
	if cap(fills) < l.d {
		fills = make([]int64, l.d)
	}
	fills = fills[:l.d]
	for u := range fills {
		fills[u] = clampI64(g-int64(u)*l.su, 0, l.su)
	}
	return fills
}
