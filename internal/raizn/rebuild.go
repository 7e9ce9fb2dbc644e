package raizn

import (
	"errors"
	"time"

	"raizn/internal/obs"
	"raizn/internal/zns"
)

// RebuildStats summarizes a device replacement.
type RebuildStats struct {
	Zones        int           // zones that needed reconstruction
	BytesWritten int64         // bytes written to the replacement device
	Elapsed      time.Duration // virtual time to repair (TTR)
}

// ReplaceDevice installs a blank device in the failed slot and rebuilds
// it (§4.2). Unlike mdraid — which resyncs the entire address space —
// RAIZN rebuilds only LBA ranges below each logical zone's write pointer,
// so the time to repair scales with the amount of valid data (§6.2,
// Figure 12). Active (open or closed) zones are rebuilt before full
// zones, so subsequent writes leave degraded mode as early as possible.
// Writes targeting not-yet-rebuilt zones are served in degraded mode for
// the duration.
func (v *Volume) ReplaceDevice(newDev *zns.Device) (RebuildStats, error) {
	var stats RebuildStats
	start := v.clk.Now()

	v.mu.Lock()
	slot := v.degraded
	if slot < 0 {
		v.mu.Unlock()
		return stats, errors.New("raizn: array is not degraded")
	}
	if v.rebuilding {
		v.mu.Unlock()
		return stats, errors.New("raizn: rebuild already in progress")
	}
	dc := newDev.Config()
	ref := (*zns.Device)(nil)
	for _, d := range v.devs {
		if d != nil {
			ref = d
			break
		}
	}
	rc := ref.Config()
	if dc.SectorSize != rc.SectorSize || dc.NumZones != rc.NumZones ||
		dc.ZoneSize != rc.ZoneSize || dc.ZoneCap != rc.ZoneCap {
		v.mu.Unlock()
		return stats, errors.New("raizn: replacement device geometry mismatch")
	}
	v.rebuilding = true
	v.rebuiltZones = make([]bool, v.lt.numZones)
	v.devs[slot] = newDev
	if v.cfg.Journal != nil {
		newDev.AttachJournal(v.cfg.Journal, slot)
	}
	v.publishDevTableLocked()
	v.mu.Unlock()

	// Re-create the replacement's metadata: superblock + current
	// checkpoints (the failed device's non-replicated metadata is gone
	// and, per §4.3, inconsequential), one roll-over per kind from its
	// empty zones, so general lands in the first and parity in the second.
	m := newRollManager(v, slot, newDev, nil)
	for kind := range mdKinds {
		if _, err := v.rollRound([]*mdManager{m}, kind, false, nil); err != nil {
			return stats, v.abortRebuild(slot, err)
		}
	}
	// Rebuild zone by zone, active zones first (§4.2). The order is taken
	// in the critical section that marks every zone outside it — the
	// empty ones — rebuilt. A zone's state changes under v.mu, and its
	// first write opens it (openZoneSlot) before loading the device table,
	// so that write either made the zone part of the order or is sent to
	// the replacement too. A queued zone reset before its turn is copied
	// as it stands at its turn: its new generation, or nothing.
	order := make([]int, 0, v.lt.numZones)
	var fullZones []int
	v.mu.Lock()
	v.md[slot] = m
	for z := 0; z < v.lt.numZones; z++ {
		switch v.zones[z].state {
		case zns.ZoneOpen, zns.ZoneClosed:
			order = append(order, z)
		case zns.ZoneFull:
			fullZones = append(fullZones, z)
		default:
			v.rebuiltZones[z] = true
		}
	}
	v.publishDevTableLocked()
	v.mu.Unlock()
	order = append(order, fullZones...)

	for _, z := range order {
		n, err := v.rebuildZone(z, slot, newDev)
		if err != nil {
			return stats, v.abortRebuild(slot, err)
		}
		stats.Zones++
		stats.BytesWritten += n
		v.stats.waRebuildBytes.Add(n)
		v.jrn.Record(obs.EvRebuild, slot, z,
			int64(stats.Zones), int64(len(order)), stats.BytesWritten, 0)
		v.fireHook("raizn.rebuild.zone", slot, z, int64(stats.Zones))
	}
	v.mu.Lock()
	v.degraded = -1
	v.rebuilding = false
	v.rebuiltZones = nil
	v.publishDevTableLocked()
	v.jrn.Record(obs.EvDegraded, slot, -1, 0, 0, 0, 0)
	v.mu.Unlock()

	if err := newDev.Flush().Wait(); err != nil {
		return stats, err
	}
	stats.Elapsed = v.clk.Now() - start
	return stats, nil
}

func (v *Volume) abortRebuild(slot int, err error) error {
	v.mu.Lock()
	v.rebuilding = false
	v.rebuiltZones = nil
	v.devs[slot] = nil
	v.md[slot] = nil
	v.publishDevTableLocked()
	v.mu.Unlock()
	return err
}

// rebuildZone reconstructs the replacement device's physical zone z from
// the survivors. Writes to this zone are gated for the duration (they
// park on the zone's condition variable, like during a reset); writes to
// other zones proceed, degraded until their own zone is rebuilt.
func (v *Volume) rebuildZone(z, slot int, newDev *zns.Device) (int64, error) {
	lz := v.zones[z]
	lz.mu.Lock()
	for lz.resetting {
		lz.cond.Wait()
	}
	lz.resetting = true
	wp := lz.wp
	state := lz.state
	lz.mu.Unlock()
	defer func() {
		lz.mu.Lock()
		lz.resetting = false
		lz.cond.Broadcast()
		lz.mu.Unlock()
	}()

	// One command per piece the replacement holds, at its arithmetic home.
	var written int64
	err := v.devPieces(z, slot, wp, state == zns.ZoneFull, func(s int64, img []byte) error {
		pba := int64(z)*v.lt.physZoneSize + s*v.lt.su
		if err := newDev.Write(pba, img, 0).Wait(); err != nil {
			return err
		}
		written += int64(len(img))
		return nil
	})
	if err != nil {
		return written, err
	}

	if state == zns.ZoneFull {
		if err := newDev.FinishZone(z).Wait(); err != nil {
			return written, err
		}
	}

	// Relocation entries whose payload lived on the dead device are now
	// obsolete: the rebuilt data sits at its arithmetic location.
	v.relocMu.Lock()
	if list := v.reloc[z]; len(list) > 0 {
		keep := list[:0]
		for _, e := range list {
			if e.dev != slot {
				keep = append(keep, e)
			}
		}
		v.reloc[z] = keep
	}
	if m := v.parityReloc[z]; m != nil {
		for s, e := range m {
			if e.dev == slot {
				delete(m, s)
			}
		}
	}
	v.relocMu.Unlock()

	v.mu.Lock()
	if v.rebuiltZones != nil {
		v.rebuiltZones[z] = true
		v.publishDevTableLocked()
	}
	v.mu.Unlock()
	return written, nil
}

// devPieces calls fn with device dev's piece of every stripe of zone z
// below the logical fill wp, in stripe order (stripePiece; sealed for a
// finished zone). A piece is read where dev is live for the zone and
// reconstructed from the other devices where it is not; img is valid
// until fn returns. Rebuild and compaction share this walk.
func (v *Volume) devPieces(z, dev int, wp int64, sealed bool, fn func(s int64, img []byte) error) error {
	stripeSec := v.lt.stripeSectors()
	buf := make([]byte, v.lt.su*int64(v.sectorSize))
	for s := int64(0); s*stripeSec < wp; s++ {
		u, n := v.lt.stripePiece(z, s, dev, min(wp-s*stripeSec, stripeSec), sealed)
		if n == 0 {
			continue
		}
		img := buf[:n*int64(v.sectorSize)]
		if err := v.unitImage(nil, z, s, u, 0, n, img); err != nil {
			return err
		}
		if err := fn(s, img); err != nil {
			return err
		}
	}
	return nil
}
