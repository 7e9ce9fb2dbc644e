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
// volume's own redundant state (relocation overlays + parity) rather
// than a literal swap-zone copy: the reconstructed content is identical,
// and a crash at any point mid-rewrite leaves the zone recoverable
// through the standard stripe-hole repair — every sector erased by the
// reset is still covered by parity on the other devices, so no separate
// operation log is required for resumability.

// compactRemappedZones runs during mount, after zone recovery and before
// metadata consolidation, so dropped relocation entries simply vanish
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

	// Which devices are affected? Any holding a fragment payload or any
	// whose physical fill deviates from the arithmetic expectation.
	affected := map[int]bool{}
	v.relocMu.Lock()
	for _, e := range v.reloc[z] {
		// The fragment shadows the arithmetic home of [startLBA,endLBA):
		// the AFFECTED device is the one holding that range's unit.
		affected[v.lt.locate(e.startLBA).dev] = true
	}
	for s := range v.parityReloc[z] {
		affected[v.lt.parityDev(z, s)] = true
	}
	v.relocMu.Unlock()
	for i := range v.devs {
		if v.devs[i] == nil {
			continue
		}
		fill, _ := v.physFill(i, z)
		if fill != expectedPhysFill(v.lt, z, i, wp) {
			affected[i] = true
		}
	}

	ss := int64(v.sectorSize)
	su := v.lt.su
	stripeSec := v.lt.stripeSectors()
	for dev := range affected {
		d := v.devs[dev]
		if d == nil {
			continue
		}
		// Reconstruct the device's correct zone content from the
		// volume's logical state (reads use the relocation overlays).
		target := expectedPhysFill(v.lt, z, dev, wp)
		content := make([]byte, target*ss)
		nStripes := (wp + stripeSec - 1) / stripeSec
		var off int64
		for s := int64(0); s < nStripes && off < target; s++ {
			g := clampI64(wp-s*stripeSec, 0, stripeSec)
			u := v.lt.unitOfDev(z, s, dev)
			var piece int64
			if u >= 0 {
				piece = clampI64(g-int64(u)*su, 0, su)
				if piece > 0 {
					var rs subReads
					if err := v.readUnitPiece(nil, z, s, u, 0, piece, content[off*ss:(off+piece)*ss], &rs); err != nil {
						return err
					}
					if err := v.awaitReads(rs.futs); err != nil {
						return err
					}
				}
			} else {
				// Parity unit: full stripes carry su; a finished zone
				// carries the prefix.
				if g == stripeSec {
					piece = su
				} else if lz.state == zns.ZoneFull {
					piece = min(g, su)
				}
				if piece > 0 {
					var rs subReads
					buf := content[off*ss : (off+piece)*ss]
					if err := v.readParityPiece(nil, z, s, 0, piece, buf, &rs); err != nil {
						return err
					}
					if err := v.awaitReads(rs.futs); err != nil {
						return err
					}
				}
			}
			off += piece
		}

		// Reset and rewrite. A crash here leaves this device's zone
		// short; the next mount repairs it stripe by stripe from parity
		// (single-device hole), so no operation WAL is needed.
		if err := d.ResetZone(z).Wait(); err != nil {
			return err
		}
		if target > 0 {
			if err := d.Write(d.ZoneStart(z), content[:target*ss], 0).Wait(); err != nil {
				return err
			}
		}
		if lz.state == zns.ZoneFull {
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
