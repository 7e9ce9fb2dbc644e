package ppengine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"raizn/internal/obs"
	"raizn/internal/parity"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// This file implements the zraid slot table: partial parity in a fixed table of
// slots inside the Zone Random Write Area of one dedicated PP zone per
// device, after ZRAID (ASPLOS '25; its artifact is SNIPPETS.md Snippet 1).
//
// A slot is one header sector plus one stripe unit of payload. Each device
// has W = min(ZRWASectors, ZoneCap) / (SU+1) of them, appended lazily from
// the zone's start, so the zone's write pointer never passes W·(SU+1) ≤
// ZRWASectors: every slot stays inside the random-write window for good,
// and nothing in the PP zone is ever programmed to NAND, finished or
// garbage-collected. A stripe's successive images overwrite its slot in
// place (pp_volatile); once the stripe closes the slot is dead and the next
// stripe reuses it in place. An image that finds all W slots live goes to
// the §5.1 log instead: Persist reports that and writes nothing, and the
// caller logs the image. Those are the table's only partial-parity bytes
// that program NAND (pp_permanent), and FallbackTotal counts them.
//
// Only the write that appends a slot covers the whole stride (the zone's
// write pointer has to reach the next slot). An overwrite sends the
// header and the image's own sectors and nothing else: whatever an older,
// longer image left behind it lies outside the header's length and CRC.

const (
	slotMagic   = 0x5A525050 // "ZRPP"
	slotHdrSize = 56         // used bytes of the header sector
)

// SlotConfig wires a slot table to its array.
type SlotConfig struct {
	NumDevices int
	// Device returns the device at array slot i, or nil when failed.
	Device func(i int) *zns.Device
	// PPZone is the physical index of the PP zone (same on every device).
	PPZone      int
	SectorSize  int
	SU          int64 // stripe unit sectors = max payload per slot
	ZoneCap     int64 // writable sectors of the PP zone
	ZRWASectors int64 // device ZRWA window, >= SU+1
}

type slotKey struct {
	zone   int
	stripe int64
}

// zrSlot is one entry of a device's slot table; slot i's header sits at
// sector i*stride of the PP zone. A dead slot's key is stale.
type zrSlot struct {
	key  slotKey
	live bool
}

// zrDev is one device's slot table. dev is the device the slots were
// written to: a replacement device in the same array slot starts empty.
type zrDev struct {
	dev   *zns.Device
	slots []zrSlot
}

// SlotTable holds an array's zraid slot tables, one per device. A logged array
// has none: on a nil table Persist finds no slot, and StripeClosed,
// ZoneReset, Scan and Format do nothing.
type SlotTable struct {
	cfg    SlotConfig
	stride int64 // slot size in sectors: 1 header + SU payload
	width  int   // W: slots per device

	mu   sync.Mutex
	devs []zrDev
	seq  uint64
	pad  []byte // zeroes, never written: a fresh slot's padding to the stride

	volatileBytes  int64
	permanentBytes int64
	fallbacks      int64
}

// NewSlotTable builds the slot tables over the array's PP zones.
func NewSlotTable(cfg SlotConfig) (*SlotTable, error) {
	stride := cfg.SU + 1
	if cfg.ZRWASectors < stride {
		return nil, fmt.Errorf("ppengine: zraid needs a ZRWA of at least %d sectors (one PP slot)", stride)
	}
	if cfg.ZoneCap < stride {
		return nil, errors.New("ppengine: PP zone capacity below one slot")
	}
	return &SlotTable{
		cfg:    cfg,
		stride: stride,
		width:  int(min(cfg.ZRWASectors, cfg.ZoneCap) / stride),
		devs:   make([]zrDev, cfg.NumDevices),
		pad:    make([]byte, cfg.SU*int64(cfg.SectorSize)),
	}, nil
}

// Stats returns the table's lifetime counters.
func (e *SlotTable) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Stats{
		VolatileBytes:  e.volatileBytes,
		PermanentBytes: e.permanentBytes,
		FallbackTotal:  e.fallbacks,
	}
}

// Persist places the image in a slot of its parity device's table: the
// stripe's own live slot, else the first dead slot, else a new slot while
// fewer than W exist. It returns the slot write's completion, the device
// sector the write starts at and its length in sectors (header included);
// n is 0 when the device has failed and nothing was written. noSlot
// reports that the image has no slot — the array is not whole (a slot
// keeps only its stripe's newest image, and the failed device's units may
// need an older one), all W are live (the image counts as a fallback), or
// the table is nil — so nothing was written and the caller logs it, which
// counts as pp_permanent. a.Frame is lent as Append describes.
func (e *SlotTable) Persist(a Append, whole bool) (fut *vclock.Future, pba, n int64, noSlot bool) {
	if e == nil {
		return nil, 0, 0, true
	}
	d := e.cfg.Device(a.Dev)
	if d == nil {
		return nil, 0, 0, false // device failed: degraded
	}
	e.mu.Lock()
	if !whole {
		e.permanentBytes += int64(len(a.Frame))
		e.mu.Unlock()
		return nil, 0, 0, true
	}
	key := slotKey{zone: a.Zone, stripe: a.Stripe}
	dv := &e.devs[a.Dev]
	if dv.dev != d {
		// A replacement device: the table's slots are on the retired one.
		dv.dev, dv.slots = d, dv.slots[:0]
	}
	own, dead := -1, -1
	for i, sl := range dv.slots {
		if sl.live && sl.key == key {
			own = i
			break
		}
		if !sl.live && dead < 0 {
			dead = i
		}
	}
	fresh := false
	switch {
	case own >= 0:
	case dead >= 0:
		own = dead
	case len(dv.slots) < e.width:
		own, fresh = len(dv.slots), true
		dv.slots = append(dv.slots, zrSlot{})
	default:
		e.fallbacks++
		e.permanentBytes += int64(len(a.Frame))
		e.mu.Unlock()
		return nil, 0, 0, true
	}
	dv.slots[own] = zrSlot{key: key, live: true}
	fut, pba, n = e.writeSlotLocked(d, a, own, fresh)
	e.mu.Unlock()
	return fut, pba, n, false
}

// writeSlotLocked encodes and submits one slot write at slot i through the
// ZRWA — the whole stride when the slot is fresh (the frame, then zeroes
// from the table's pad), header plus image when it overwrites one in place,
// which supersedes that many bytes inside the window. It returns the
// write's completion, the device sector it starts at and its length in
// sectors. A ZRWA write copies its payload at submit, so the frame is the
// caller's again at return. Caller holds e.mu; the write is asynchronous.
func (e *SlotTable) writeSlotLocked(d *zns.Device, a Append, i int, fresh bool) (*vclock.Future, int64, int64) {
	ss := int64(e.cfg.SectorSize)
	e.seq++
	e.encodeSlotLocked(a, e.seq)
	segs, nseg, size := [2][]byte{a.Frame}, 1, int64(len(a.Frame))
	if !fresh {
		e.volatileBytes += size
	} else if size < e.stride*ss {
		segs[1], nseg, size = e.pad[:e.stride*ss-size], 2, e.stride*ss
	}
	pba := d.ZoneStart(e.cfg.PPZone) + int64(i)*e.stride
	var child *obs.Span
	if a.Span != nil {
		child = a.Span.Child(obs.OpDevWrite, a.Dev, pba, size)
	}
	fut := d.WritevSpan(child, a.Fut, pba, segs[:nseg], zns.Flag(a.Flags)|zns.ZRWA)
	return fut, pba, size / ss
}

// encodeSlotLocked writes the slot header (magic, CRC, key, range, gen,
// seq) into the header sector of a's frame, whose image is whole sectors.
// Caller holds e.mu.
func (e *SlotTable) encodeSlotLocked(a Append, seq uint64) {
	ss := e.cfg.SectorSize
	hdr := a.Frame[:ss]
	binary.LittleEndian.PutUint32(hdr[0:4], slotMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(a.Zone))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(len(a.Frame)/ss-1))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(a.Stripe))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(a.StartLBA))
	binary.LittleEndian.PutUint64(hdr[32:40], uint64(a.EndLBA))
	binary.LittleEndian.PutUint64(hdr[40:48], a.Gen)
	binary.LittleEndian.PutUint64(hdr[48:56], seq)
	// Only the first slotHdrSize bytes of the header sector are used: the
	// rest of it is zero, whatever the caller's frame held there.
	clear(hdr[slotHdrSize:])
	crc := parity.UpdateCRC(0, hdr[8:slotHdrSize])
	crc = parity.UpdateCRC(crc, a.Frame[ss:])
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
}

// decodeSlot parses and validates one slot read back from a PP zone. The
// record's payload aliases buf.
func decodeSlot(buf []byte, ss int, su int64) (rec Record, seq uint64, ok bool) {
	if binary.LittleEndian.Uint32(buf[0:4]) != slotMagic {
		return Record{}, 0, false
	}
	payLen := int64(binary.LittleEndian.Uint32(buf[12:16]))
	if payLen < 0 || payLen > su {
		return Record{}, 0, false
	}
	if int64(len(buf)) < int64(ss)+payLen*int64(ss) {
		return Record{}, 0, false
	}
	crc := parity.UpdateCRC(0, buf[8:slotHdrSize])
	crc = parity.UpdateCRC(crc, buf[ss:int64(ss)+payLen*int64(ss)])
	if crc != binary.LittleEndian.Uint32(buf[4:8]) {
		return Record{}, 0, false
	}
	rec = Record{
		Zone:     int(binary.LittleEndian.Uint32(buf[8:12])),
		Stripe:   int64(binary.LittleEndian.Uint64(buf[16:24])),
		StartLBA: int64(binary.LittleEndian.Uint64(buf[24:32])),
		EndLBA:   int64(binary.LittleEndian.Uint64(buf[32:40])),
		Gen:      binary.LittleEndian.Uint64(buf[40:48]),
		Payload:  buf[ss : int64(ss)+payLen*int64(ss)],
	}
	return rec, binary.LittleEndian.Uint64(buf[48:56]), true
}

// StripeClosed marks the stripe's slot (if any) dead on every device.
// Cheap: a scan of W slots per device, safe under the caller's zone lock.
func (e *SlotTable) StripeClosed(zone int, stripe int64) {
	if e == nil {
		return
	}
	key := slotKey{zone: zone, stripe: stripe}
	e.kill(func(k slotKey) bool { return k == key })
}

// ZoneReset marks every slot of the logical zone dead on every device.
func (e *SlotTable) ZoneReset(zone int) {
	if e == nil {
		return
	}
	e.kill(func(k slotKey) bool { return k.zone == zone })
}

func (e *SlotTable) kill(match func(slotKey) bool) {
	e.mu.Lock()
	for i := range e.devs {
		for j := range e.devs[i].slots {
			if sl := &e.devs[i].slots[j]; sl.live && match(sl.key) {
				sl.live = false
			}
		}
	}
	e.mu.Unlock()
}

// Scan reads the PP zone of every live device in one command each, all
// issued before any is waited for, and decodes and CRC-validates it slot
// stride by slot stride; torn slots drop out. When several slots carry the
// same (zone, stripe) the highest sequence number wins. Runs
// single-threaded at mount time. A nil table has none.
func (e *SlotTable) Scan() ([]Record, error) {
	if e == nil {
		return nil, nil
	}
	ss := int64(e.cfg.SectorSize)
	bufs := make([][]byte, e.cfg.NumDevices)
	futs := make([]*vclock.Future, e.cfg.NumDevices)
	for i := range bufs {
		d := e.cfg.Device(i)
		if d == nil {
			continue
		}
		start := d.ZoneStart(e.cfg.PPZone)
		if fill := d.Zone(e.cfg.PPZone).WP - start; fill > 0 {
			bufs[i] = make([]byte, fill*ss)
			futs[i] = d.Read(start, bufs[i])
		}
	}
	type best struct {
		rec Record
		seq uint64
	}
	found := make(map[slotKey]best)
	var order []slotKey
	for i, fut := range futs {
		if fut == nil {
			continue
		}
		if err := fut.Wait(); err != nil {
			return nil, fmt.Errorf("ppengine: pp zone scan dev %d zone %d: %w", i, e.cfg.PPZone, err)
		}
		zone := bufs[i]
		for pos := int64(0); pos < int64(len(zone)); pos += e.stride * ss {
			// A power cut can leave the zone ending inside its last slot:
			// an overwrite persists the slot only as far as its own image
			// reaches.
			rec, seq, ok := decodeSlot(zone[pos:min(pos+e.stride*ss, int64(len(zone)))], int(ss), e.cfg.SU)
			if !ok {
				continue
			}
			key := slotKey{zone: rec.Zone, stripe: rec.Stripe}
			if b, seen := found[key]; !seen {
				order = append(order, key)
				found[key] = best{rec: rec, seq: seq}
			} else if seq > b.seq {
				found[key] = best{rec: rec, seq: seq}
			}
		}
	}
	out := make([]Record, 0, len(order))
	for _, key := range order {
		out = append(out, found[key].rec)
	}
	return out, nil
}

// Format resets every PP zone that holds data on the devices and empties
// the slot tables. Called after mount-time recovery replayed and
// re-checkpointed everything live: the tables start fresh.
func (e *SlotTable) Format() error {
	if e == nil {
		return nil
	}
	var futs []*vclock.Future
	for i := 0; i < e.cfg.NumDevices; i++ {
		if d := e.cfg.Device(i); d != nil && d.Zone(e.cfg.PPZone).State != zns.ZoneEmpty {
			futs = append(futs, d.ResetZone(e.cfg.PPZone))
		}
	}
	err := vclock.WaitAll(futs...)
	e.mu.Lock()
	for i := range e.devs {
		e.devs[i].slots = e.devs[i].slots[:0]
	}
	e.mu.Unlock()
	if err != nil && !errors.Is(err, zns.ErrDeviceFailed) {
		return err
	}
	return nil
}
