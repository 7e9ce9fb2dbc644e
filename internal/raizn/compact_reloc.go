package raizn

import (
	"raizn/internal/zns"
)

// §5.2: "It is possible for the metadata zone to run out of space due to
// too many remapped stripe units, so if the number of remappings passes a
// user-modifiable threshold, RAIZN rebuilds the affected physical zones
// during initialization. All data is copied from the affected physical
// zone into a swap zone, the zone is reset, and then the data is copied
// back with the remapped stripe unit written to the correct address."
//
// This implementation rewrites each affected physical zone from the
// volume's own redundant state rather than a literal swap-zone copy: the
// new content is the device's piece of every stripe below the logical
// write pointer (stripePiece, with a finished zone's sealed tail parity),
// read through the relocation overlays (devPieces, the walk rebuild also
// takes). That is not the old zone byte for byte: debris past the write
// pointer is dropped, and each fragment's payload replaces the debris it
// shadowed at its arithmetic home. A crash at any point mid-rewrite leaves the zone recoverable through the
// standard stripe-hole repair — every sector erased by the reset is still
// covered by parity on the other devices, so no separate operation log
// is required for resumability.

// compactRemappedZones runs during mount, after zone recovery and before
// the metadata roll-overs, so dropped relocation entries simply vanish
// from the fresh checkpoints.
func (v *Volume) compactRemappedZones() error {
	if v.cfg.RelocationThreshold <= 0 {
		return nil
	}
	if v.degraded >= 0 {
		return nil // no redundancy to rebuild from; defer to a later mount
	}
	for z := 0; z < v.lt.numZones; z++ {
		v.relocMu.Lock()
		count := len(v.reloc[z]) + len(v.parityReloc[z])
		v.relocMu.Unlock()
		if count < v.cfg.RelocationThreshold {
			continue
		}
		if err := v.compactZone(z); err != nil {
			return err
		}
	}
	return nil
}

// compactZone rewrites every physical zone of logical zone z that holds
// relocated fragments (or crash debris), placing all data at its
// arithmetic location, then drops the relocation entries.
func (v *Volume) compactZone(z int) error {
	lz := v.zones[z]
	wp := lz.wp

	// Which devices are affected? Any whose unit a fragment shadows, and
	// any whose physical fill deviates from the arithmetic expectation.
	affected := make([]bool, len(v.devs))
	v.relocMu.Lock()
	for _, e := range v.reloc[z] {
		affected[v.lt.locate(e.startLBA).dev] = true
	}
	for s := range v.parityReloc[z] {
		affected[v.lt.parityDev(z, s)] = true
	}
	v.relocMu.Unlock()

	sealed := lz.state == zns.ZoneFull
	for dev, d := range v.devs {
		if fill, _ := v.physFill(dev, z); d == nil || !affected[dev] && fill == expectedPhysFill(v.lt, z, dev, wp) {
			continue
		}
		// The device's correct zone content, read through the overlays.
		var content []byte
		if err := v.devPieces(z, dev, wp, sealed, func(_ int64, img []byte) error {
			content = append(content, img...)
			return nil
		}); err != nil {
			return err
		}

		// Reset and rewrite. A crash here leaves this device's zone
		// short; the next mount repairs it stripe by stripe from parity
		// (single-device hole), so no operation WAL is needed.
		if err := d.ResetZone(z).Wait(); err != nil {
			return err
		}
		if len(content) > 0 {
			if err := d.Write(d.ZoneStart(z), content, 0).Wait(); err != nil {
				return err
			}
		}
		if sealed {
			if err := d.FinishZone(z).Wait(); err != nil {
				return err
			}
		}
		if err := d.Flush().Wait(); err != nil {
			return err
		}
	}

	// Everything now lives at its arithmetic home.
	v.dropRelocEntries(z)
	lz.remapped = false
	return nil
}
