package fio

import (
	"raizn/internal/blockdev"
	"raizn/internal/mdraid"
	"raizn/internal/raizn"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// ZoneResetter is implemented by zoned targets; the Figure 10 overwrite
// harness uses it to reset-and-rewrite zones.
type ZoneResetter interface {
	ZoneSectors() int64
	NumZones() int
	ResetZone(z int) error
}

// RaiznTarget adapts a RAIZN volume.
type RaiznTarget struct{ V *raizn.Volume }

// SectorSize implements Target.
func (t RaiznTarget) SectorSize() int { return t.V.SectorSize() }

// NumSectors implements Target.
func (t RaiznTarget) NumSectors() int64 { return t.V.NumSectors() }

// SubmitWrite implements Target.
func (t RaiznTarget) SubmitWrite(lba int64, data []byte) *vclock.Future {
	return t.V.SubmitWrite(lba, data, 0)
}

// SubmitRead implements Target.
func (t RaiznTarget) SubmitRead(lba int64, buf []byte) *vclock.Future {
	return t.V.SubmitRead(lba, buf)
}

// Flush implements Target.
func (t RaiznTarget) Flush() error { return t.V.Flush() }

// ZoneSectors implements ZoneResetter.
func (t RaiznTarget) ZoneSectors() int64 { return t.V.ZoneSectors() }

// NumZones implements ZoneResetter.
func (t RaiznTarget) NumZones() int { return t.V.NumZones() }

// ResetZone implements ZoneResetter.
func (t RaiznTarget) ResetZone(z int) error { return t.V.ResetZone(z) }

// MdraidTarget adapts an mdraid volume.
type MdraidTarget struct{ V *mdraid.Volume }

// SectorSize implements Target.
func (t MdraidTarget) SectorSize() int { return t.V.SectorSize() }

// NumSectors implements Target.
func (t MdraidTarget) NumSectors() int64 { return t.V.NumSectors() }

// SubmitWrite implements Target.
func (t MdraidTarget) SubmitWrite(lba int64, data []byte) *vclock.Future {
	return t.V.SubmitWrite(lba, data)
}

// SubmitRead implements Target.
func (t MdraidTarget) SubmitRead(lba int64, buf []byte) *vclock.Future {
	return t.V.SubmitRead(lba, buf)
}

// Flush implements Target.
func (t MdraidTarget) Flush() error { return t.V.Flush() }

// ZNSFlatTarget adapts a single raw ZNS device, exposing its writable
// capacity as a dense address space (the §6.1 raw-device benchmarks
// write zones back to back).
type ZNSFlatTarget struct{ D *zns.Device }

// SectorSize implements Target.
func (t ZNSFlatTarget) SectorSize() int { return t.D.Config().SectorSize }

// NumSectors implements Target.
func (t ZNSFlatTarget) NumSectors() int64 {
	return int64(t.D.Config().NumZones) * t.D.Config().ZoneCap
}

func (t ZNSFlatTarget) phys(lba int64) int64 {
	cfg := t.D.Config()
	z := lba / cfg.ZoneCap
	return z*cfg.ZoneSize + lba%cfg.ZoneCap
}

// SubmitWrite implements Target. Writes must arrive sequentially per
// zone, which sequential fio jobs satisfy; the flat mapping never lets a
// block span two zones when the block size divides the zone capacity.
func (t ZNSFlatTarget) SubmitWrite(lba int64, data []byte) *vclock.Future {
	cfg := t.D.Config()
	n := int64(len(data)) / int64(cfg.SectorSize)
	// Split at zone-capacity boundaries.
	if lba/cfg.ZoneCap != (lba+n-1)/cfg.ZoneCap {
		split := (lba/cfg.ZoneCap + 1) * cfg.ZoneCap
		first := (split - lba) * int64(cfg.SectorSize)
		f1 := t.SubmitWrite(lba, data[:first])
		f2 := t.SubmitWrite(split, data[first:])
		out := t.D.Clock().NewFuture()
		t.D.Clock().Go(func() { out.Complete(vclock.WaitAll(f1, f2)) })
		return out
	}
	return t.D.Write(t.phys(lba), data, 0)
}

// SubmitRead implements Target.
func (t ZNSFlatTarget) SubmitRead(lba int64, buf []byte) *vclock.Future {
	cfg := t.D.Config()
	n := int64(len(buf)) / int64(cfg.SectorSize)
	if lba/cfg.ZoneCap != (lba+n-1)/cfg.ZoneCap {
		split := (lba/cfg.ZoneCap + 1) * cfg.ZoneCap
		first := (split - lba) * int64(cfg.SectorSize)
		f1 := t.SubmitRead(lba, buf[:first])
		f2 := t.SubmitRead(split, buf[first:])
		out := t.D.Clock().NewFuture()
		t.D.Clock().Go(func() { out.Complete(vclock.WaitAll(f1, f2)) })
		return out
	}
	return t.D.Read(t.phys(lba), buf)
}

// Flush implements Target.
func (t ZNSFlatTarget) Flush() error { return t.D.Flush().Wait() }

// ZoneSectors implements ZoneResetter.
func (t ZNSFlatTarget) ZoneSectors() int64 { return t.D.Config().ZoneCap }

// NumZones implements ZoneResetter.
func (t ZNSFlatTarget) NumZones() int { return t.D.Config().NumZones }

// ResetZone implements ZoneResetter.
func (t ZNSFlatTarget) ResetZone(z int) error { return t.D.ResetZone(z).Wait() }

// BlockTarget adapts a single raw conventional device.
type BlockTarget struct{ D *blockdev.Device }

// SectorSize implements Target.
func (t BlockTarget) SectorSize() int { return t.D.Config().SectorSize }

// NumSectors implements Target.
func (t BlockTarget) NumSectors() int64 { return t.D.NumSectors() }

// SubmitWrite implements Target.
func (t BlockTarget) SubmitWrite(lba int64, data []byte) *vclock.Future {
	return t.D.Write(lba, data, 0)
}

// SubmitRead implements Target.
func (t BlockTarget) SubmitRead(lba int64, buf []byte) *vclock.Future {
	return t.D.Read(lba, buf)
}

// Flush implements Target.
func (t BlockTarget) Flush() error { return t.D.Flush().Wait() }
