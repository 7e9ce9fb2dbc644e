package raizn

import (
	"fmt"

	"raizn/internal/zns"
)

// Flight-recorder black-box persistence (internal/obs/flight): the
// serialized box rides the normal metadata write path as a recFlightBox
// record, FUA-appended to the general metadata log so it is durable the
// moment the append completes — a crash capture taken right afterwards
// recovers it even when only flushed data survives. The newest
// generation wins; metadata GC and the mount's roll-overs re-emit the
// latest box (see checkpointRecords), so forensics survive log
// roll-over and remount.

// PersistBlackBox durably appends one serialized black box. The first
// live device's general metadata log gets the record; on append failure
// the next device is tried, so a degraded array still records. Must run
// on a simulated goroutine.
func (v *Volume) PersistBlackBox(data []byte) error {
	if len(data) == 0 {
		return fmt.Errorf("raizn: empty black box")
	}
	maxBytes := (v.lt.physZoneCap - 8) * int64(v.sectorSize)
	if int64(len(data)) > maxBytes {
		return fmt.Errorf("raizn: black box %d bytes exceeds metadata zone budget %d", len(data), maxBytes)
	}
	t := v.loadDevs()
	lastErr := zns.ErrDeviceFailed
	for i := range t.md {
		if t.md[i] == nil || t.devs[i] == nil {
			continue
		}
		rec := &record{
			typ:      recFlightBox,
			startLBA: int64(len(data)),
			gen:      v.nextMDSeq(),
			payload:  data,
		}
		fut, _, err := t.md[i].append(rec, zns.FUA)
		if err != nil {
			lastErr = err
			continue
		}
		if err := fut.Wait(); err != nil {
			lastErr = err
			continue
		}
		v.mu.Lock()
		if rec.gen > v.blackBoxGen || v.blackBox == nil {
			v.blackBox = append(v.blackBox[:0], data...)
			v.blackBoxGen = rec.gen
		}
		v.mu.Unlock()
		return nil
	}
	return lastErr
}

// ReadBlackBox returns a copy of the newest black box the volume knows:
// the last one persisted on this mount, or the one recovered from the
// metadata scan after Mount. ok is false when none exists.
func (v *Volume) ReadBlackBox() (data []byte, ok bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.blackBox) == 0 {
		return nil, false
	}
	return append([]byte(nil), v.blackBox...), true
}

// RecoverBlackBox scans one device's metadata zones for the newest
// persisted black box without mounting the array — the forensics path
// for crash clones whose array may not even mount. cfg is the array's
// configuration (geometry must match what the box was written under).
// ok is false when the device holds no intact box. Must run on a
// simulated goroutine of the device's clock.
func RecoverBlackBox(dev *zns.Device, cfg Config) (data []byte, ok bool, err error) {
	cfg = cfg.withDefaults()
	recs, err := scanMDZones(dev, deviceLayout(dev.Config(), cfg), dev.Config().SectorSize)
	if err != nil {
		return nil, false, err
	}
	if best := newestFlightBox(recs); best != nil {
		return append([]byte(nil), best.payload[:best.startLBA]...), true, nil
	}
	return nil, false, nil
}

// newestFlightBox picks the highest-generation intact flight-box record.
func newestFlightBox(recs []record) *record {
	var best *record
	for i := range recs {
		r := &recs[i]
		if r.typ.base() != recFlightBox {
			continue
		}
		if r.startLBA <= 0 || int64(len(r.payload)) < r.startLBA {
			continue // torn or garbage payload
		}
		if best == nil || r.gen > best.gen {
			best = r
		}
	}
	return best
}
