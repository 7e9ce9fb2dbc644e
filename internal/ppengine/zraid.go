package ppengine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"raizn/internal/obs"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// This file implements the zraid engine: log-structured partial parity
// in dedicated PP zones, after ZRAID (Li et al., "ZRAID: Leveraging
// Zone Random Write Area for Cost-effective RAID on ZNS SSDs").
//
// Partial parity is written in fixed-size slots — one header sector
// plus one stripe unit of payload — through the Zone Random Write Area
// of a small per-device pool of PP zones. A stripe's successive parity
// images overwrite its slot in place while the slot is still inside
// the ZRWA window, so those bytes are never programmed to NAND
// (pp_volatile); when a stripe closes its slot is dead and is reused
// in place by later stripes. Only slot bytes the window slides past —
// or that a zone finish commits — become flash programs (pp_permanent).
//
// Only the write that appends a slot covers the whole stride (the zone's
// write pointer has to reach the next slot). An overwrite sends the
// header and the image's own sectors and nothing else: whatever an older,
// longer image left behind it lies outside the header's length and CRC.
//
// The pool is a ring: the head zone takes appends; advancing the head
// finishes the old zone and garbage-collects the zone after the new
// head (migrating its live slots into the head, then resetting it), so
// the next advance always lands on an empty zone. When migration does
// not fit, the GC aborts and Persist reports backpressure, sending the
// image to the ordinary metadata log instead.

const (
	slotMagic   = 0x5A525050 // "ZRPP"
	slotHdrSize = 56         // used bytes of the header sector
)

// ErrNoPPSpace is returned by Maintain/GC when a PP-zone pool cannot be
// reclaimed because live slots exceed the head zone's free space.
var ErrNoPPSpace = errors.New("ppengine: pp zones exhausted by live slots")

// ZRAIDConfig wires a zraid engine to its array.
type ZRAIDConfig struct {
	Clock      *vclock.Clock
	NumDevices int
	// Device returns the device at array slot i, or nil when failed.
	Device func(i int) *zns.Device
	// PPZone returns the physical zone index of pool slot i (same on
	// every device), 0 <= i < PPZones.
	PPZone      func(i int) int
	PPZones     int
	SectorSize  int
	SU          int64 // stripe unit sectors = max payload per slot
	ZoneCap     int64 // writable sectors per PP zone
	ZRWASectors int64 // device ZRWA window, >= SU+1

	// Charge adds a slot write's bytes to the volume's layered WA
	// accounting (header and payload separately). Never nil.
	Charge func(headerBytes, payloadBytes int64)
	// Journal receives EvPartialParity events (may be disabled).
	Journal *obs.Journal
	// Hook fires crash points (raizn.pp.write, raizn.ppgc.*); nil ok.
	Hook func(name string, src, zone int, arg int64)
}

type slotKey struct {
	zone   int
	stripe int64
}

// zrSlot is one slot position in a PP zone and (when live) the image it
// holds. The payload is kept in memory so GC migration and devices
// configured with DiscardData both work without device reads.
type zrSlot struct {
	pool int   // pool index of the owning zone
	pos  int64 // zone-relative sector of the header
	live bool
	key  slotKey
	rec  Record
	seq  uint64
}

// zrZone mirrors one PP zone's append and flash-program state. mark
// tracks the programmed boundary exactly as the device model does: a
// ZRWA zone programs lazily up to wp-ZRWASectors, a finished zone up to
// wp, and a reset discards the unprogrammed tail.
type zrZone struct {
	zone  int   // physical zone index
	wp    int64 // zone-relative sectors appended (slots * stride)
	mark  int64 // zone-relative sectors programmed to flash
	slots []*zrSlot
}

type zrDev struct {
	head  int
	pools []zrZone
	byKey map[slotKey]*zrSlot // live slot per (zone, stripe)
}

type zraidEngine struct {
	cfg    ZRAIDConfig
	stride int64 // slot size in sectors: 1 header + SU payload

	mu     sync.Mutex
	cond   *vclock.Cond
	gcBusy bool
	devs   []zrDev
	seq    uint64
	buf    []byte // one stride: every slot write is encoded here, under mu

	volatileBytes  int64
	permanentBytes int64
	fallbacks      int64
	gcRuns         int64
	gcMigrated     int64
}

// NewZRAID builds a zraid engine over the array's PP-zone pools.
func NewZRAID(cfg ZRAIDConfig) (Engine, error) {
	stride := cfg.SU + 1
	if cfg.PPZones < 2 {
		return nil, errors.New("ppengine: zraid needs at least 2 PP zones per device")
	}
	if cfg.ZRWASectors < stride {
		return nil, fmt.Errorf("ppengine: zraid needs a ZRWA of at least %d sectors (one PP slot)", stride)
	}
	if cfg.ZoneCap < 2*stride {
		return nil, errors.New("ppengine: PP zone capacity below two slots")
	}
	e := &zraidEngine{cfg: cfg, stride: stride, buf: make([]byte, stride*int64(cfg.SectorSize))}
	e.cond = cfg.Clock.NewCond(&e.mu)
	e.devs = make([]zrDev, cfg.NumDevices)
	for i := range e.devs {
		e.devs[i].byKey = make(map[slotKey]*zrSlot)
		e.devs[i].pools = make([]zrZone, cfg.PPZones)
		for p := 0; p < cfg.PPZones; p++ {
			e.devs[i].pools[p] = zrZone{zone: cfg.PPZone(p)}
		}
	}
	return e, nil
}

func (e *zraidEngine) Kind() Kind { return ZRAID }

func (e *zraidEngine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Stats{
		VolatileBytes:  e.volatileBytes,
		PermanentBytes: e.permanentBytes,
		FallbackTotal:  e.fallbacks,
		GCRuns:         e.gcRuns,
		GCMigrated:     e.gcMigrated,
	}
}

func (e *zraidEngine) fire(name string, src, zone int, arg int64) {
	if e.cfg.Hook != nil {
		e.cfg.Hook(name, src, zone, arg)
	}
}

// Persist places the image in a PP-zone slot, advancing (and garbage
// collecting) the device's pool when the head zone is full. ok=false
// reports backpressure: the pool is exhausted by live slots.
func (e *zraidEngine) Persist(a Append) (*vclock.Future, int64, bool) {
	d := e.cfg.Device(a.Dev)
	if d == nil {
		return nil, 0, false
	}
	e.mu.Lock()
	for e.gcBusy {
		e.cond.Wait()
	}
	if fut, end, ok := e.placeLocked(d, a); ok {
		e.mu.Unlock()
		return fut, end, true
	}
	// Head zone full: advance the ring (GC), then retry placement. The
	// gcBusy flag parks concurrent Persists without holding e.mu across
	// the blocking device IO.
	e.gcBusy = true
	e.mu.Unlock()
	err := e.advance(a.Dev, d)
	e.mu.Lock()
	e.gcBusy = false
	e.cond.Broadcast()
	var fut *vclock.Future
	var end int64
	ok := false
	if err == nil {
		fut, end, ok = e.placeLocked(d, a)
	}
	if !ok {
		e.fallbacks++
	}
	e.mu.Unlock()
	if !ok {
		return nil, 0, false
	}
	return fut, end, true
}

// inWindowLocked reports whether the slot can still be overwritten in
// place: its header sector is inside [wp-ZRWA, wp] of its zone.
func (e *zraidEngine) inWindowLocked(dv *zrDev, sl *zrSlot) bool {
	return sl.pos >= dv.pools[sl.pool].wp-e.cfg.ZRWASectors
}

// placeLocked finds a slot for the image — the stripe's own live slot,
// a dead slot still inside a ZRWA window, or a fresh append at the head
// zone — and submits the write. ok=false means the head zone has no
// room and the ring must advance. Caller holds e.mu.
func (e *zraidEngine) placeLocked(d *zns.Device, a Append) (*vclock.Future, int64, bool) {
	dv := &e.devs[a.Dev]
	key := slotKey{zone: a.Zone, stripe: a.Stripe}
	ss := int64(e.cfg.SectorSize)
	image := a.Frame[ss:]

	// The stripe already has a slot: overwrite it in place. The old
	// image was superseded inside the window — it never reaches flash.
	if sl := dv.byKey[key]; sl != nil {
		if e.inWindowLocked(dv, sl) {
			fut, end := e.writeSlotLocked(d, a.Dev, dv, sl, a, image)
			return fut, end, true
		}
		// The slot slid out of the window and can no longer be
		// overwritten in place; a replacement is written below. Kill the
		// old slot now or GC would migrate the stale image later — with
		// a fresh sequence number that would outrank the replacement at
		// recovery. The mapping goes too: placement can fail here (head
		// full, GC backpressure) and a later retry must not take this
		// branch against a dead slot whose zone GC may since have reset.
		sl.live = false
		delete(dv.byKey, key)
	}

	// Reuse a dead slot that is still overwritable. Its stale content
	// is likewise superseded in-window.
	for pi := range dv.pools {
		for _, sl := range dv.pools[pi].slots {
			if sl.live || !e.inWindowLocked(dv, sl) {
				continue
			}
			sl.live = true
			sl.key = key
			dv.byKey[key] = sl
			fut, end := e.writeSlotLocked(d, a.Dev, dv, sl, a, image)
			return fut, end, true
		}
	}

	// Append a fresh slot at the head zone.
	hz := &dv.pools[dv.head]
	if hz.wp+e.stride > e.cfg.ZoneCap {
		return nil, 0, false
	}
	sl := &zrSlot{pool: dv.head, pos: hz.wp, live: true, key: key}
	hz.slots = append(hz.slots, sl)
	hz.wp += e.stride
	// The window slid: bytes below wp-ZRWA are programmed by the device.
	if m := hz.wp - e.cfg.ZRWASectors; m > hz.mark {
		e.permanentBytes += (m - hz.mark) * ss
		hz.mark = m
	}
	dv.byKey[key] = sl
	fut, end := e.writeSlotLocked(d, a.Dev, dv, sl, a, image)
	return fut, end, true
}

// writeSlotLocked encodes and submits one slot write at the slot's
// position through the ZRWA — the whole stride when the slot is new, header
// plus image when it overwrites one in place, which supersedes that many
// bytes inside the window — keeps a copy of the image (in the slot's own
// capacity, reused from image to image) for GC migration and Scan-free
// reads, and charges the WA accounting. image is the caller's and is not
// retained. It returns the write's completion and the device sector the
// write ends at. Caller holds e.mu; the write is asynchronous.
func (e *zraidEngine) writeSlotLocked(d *zns.Device, dev int, dv *zrDev, sl *zrSlot, a Append, image []byte) (*vclock.Future, int64) {
	ss := int64(e.cfg.SectorSize)
	overwrite := sl.seq != 0
	e.seq++
	sl.seq = e.seq
	sl.rec = Record{
		Zone: a.Zone, Stripe: a.Stripe,
		StartLBA: a.StartLBA, EndLBA: a.EndLBA,
		Gen:     a.Gen,
		Payload: append(sl.rec.Payload[:0], image...),
	}
	buf := e.encodeSlotLocked(sl, !overwrite)
	if overwrite {
		e.volatileBytes += int64(len(buf))
	}
	pz := &dv.pools[sl.pool]
	pba := d.ZoneStart(pz.zone) + sl.pos
	var child *obs.Span
	if a.Span != nil {
		child = a.Span.Child(obs.OpDevWrite, dev, pba, int64(len(buf)))
	}
	fut := d.WriteZRWASpan(child, a.Fut, pba, buf, zns.Flag(a.Flags))
	payload := int64(len(buf)) - ss
	e.cfg.Charge(ss, payload)
	if e.cfg.Journal != nil && e.cfg.Journal.Enabled() {
		e.cfg.Journal.Record(obs.EvPartialParity, dev, pz.zone, payload, ss, 0, 0)
	}
	e.fire("raizn.pp.write", dev, pz.zone, pba)
	return fut, pba + int64(len(buf))/ss
}

// encodeSlotLocked serializes the slot's image into the engine's stride
// buffer: header sector (magic, CRC, key, range, gen, seq) followed by the
// payload rounded up to whole sectors and, with pad, zeroes up to a full
// stripe unit. The result is valid until the next call; the device copies
// it at submit. Caller holds e.mu.
func (e *zraidEngine) encodeSlotLocked(sl *zrSlot, pad bool) []byte {
	ss := e.cfg.SectorSize
	payLen := (len(sl.rec.Payload) + ss - 1) / ss
	size := (1 + payLen) * ss
	if pad {
		size = int(e.stride) * ss
	}
	// Only the first slotHdrSize bytes of the header sector are ever
	// written, all of them every time: the rest of it stays zero.
	buf := e.buf[:size]
	binary.LittleEndian.PutUint32(buf[0:4], slotMagic)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(sl.rec.Zone))
	binary.LittleEndian.PutUint32(buf[12:16], uint32(payLen))
	binary.LittleEndian.PutUint64(buf[16:24], uint64(sl.rec.Stripe))
	binary.LittleEndian.PutUint64(buf[24:32], uint64(sl.rec.StartLBA))
	binary.LittleEndian.PutUint64(buf[32:40], uint64(sl.rec.EndLBA))
	binary.LittleEndian.PutUint64(buf[40:48], sl.rec.Gen)
	binary.LittleEndian.PutUint64(buf[48:56], sl.seq)
	n := copy(buf[ss:], sl.rec.Payload)
	clear(buf[ss+n:])
	crc := crc32.Update(0, crcTable, buf[8:slotHdrSize])
	crc = crc32.Update(crc, crcTable, buf[ss:ss+payLen*ss])
	binary.LittleEndian.PutUint32(buf[4:8], crc)
	return buf
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// decodeSlot parses and validates one slot read back from a PP zone.
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
	crc := crc32.Update(0, crcTable, buf[8:slotHdrSize])
	crc = crc32.Update(crc, crcTable, buf[ss:int64(ss)+payLen*int64(ss)])
	if crc != binary.LittleEndian.Uint32(buf[4:8]) {
		return Record{}, 0, false
	}
	rec = Record{
		Zone:     int(binary.LittleEndian.Uint32(buf[8:12])),
		Stripe:   int64(binary.LittleEndian.Uint64(buf[16:24])),
		StartLBA: int64(binary.LittleEndian.Uint64(buf[24:32])),
		EndLBA:   int64(binary.LittleEndian.Uint64(buf[32:40])),
		Gen:      binary.LittleEndian.Uint64(buf[40:48]),
		Payload:  append([]byte(nil), buf[ss:int64(ss)+payLen*int64(ss)]...),
	}
	return rec, binary.LittleEndian.Uint64(buf[48:56]), true
}

// advance finishes the full head zone, moves the head to the next ring
// zone (kept empty by the previous advance's GC), and garbage-collects
// the zone after it so the invariant holds for the next advance. Called
// with gcBusy set and e.mu released.
func (e *zraidEngine) advance(dev int, d *zns.Device) error {
	ss := int64(e.cfg.SectorSize)
	e.mu.Lock()
	dv := &e.devs[dev]
	hz := &dv.pools[dv.head]
	next := (dv.head + 1) % len(dv.pools)
	if dv.pools[next].wp != 0 {
		// The invariant broke on an earlier aborted GC and the pool is
		// still packed with live slots: backpressure.
		e.mu.Unlock()
		return ErrNoPPSpace
	}
	// Finishing commits the head zone's in-ZRWA tail to flash.
	e.permanentBytes += (hz.wp - hz.mark) * ss
	hz.mark = hz.wp
	finZone := hz.zone
	dv.head = next
	e.mu.Unlock()

	if err := d.FinishZone(finZone).Wait(); err != nil && !errors.Is(err, zns.ErrDeviceFailed) {
		return err
	}
	victim := (next + 1) % len(e.devs[dev].pools)
	return e.gcZone(dev, d, victim)
}

// gcZone migrates the victim zone's live slots into the head zone, then
// resets the victim, reclaiming its dead slots. Aborts (leaving the
// victim untouched) when the live slots do not fit the head's free
// space with one slot to spare. Called with gcBusy set, e.mu released.
func (e *zraidEngine) gcZone(dev int, d *zns.Device, victim int) error {
	ss := int64(e.cfg.SectorSize)
	e.mu.Lock()
	dv := &e.devs[dev]
	vz := &dv.pools[victim]
	if vz.wp == 0 || victim == dv.head {
		e.mu.Unlock()
		return nil
	}
	var live []*zrSlot
	for _, sl := range vz.slots {
		if sl.live {
			live = append(live, sl)
		}
	}
	hz := &dv.pools[dv.head]
	free := (e.cfg.ZoneCap - hz.wp) / e.stride
	if len(live) > 0 && int64(len(live)) > free-1 {
		e.mu.Unlock()
		return ErrNoPPSpace
	}
	e.fire("raizn.ppgc.begin", dev, vz.zone, int64(len(live)))
	// Re-append every live image at the head. byKey moves to the copies,
	// so a concurrent StripeClosed kills the copy, not the stale slot.
	var futs []*vclock.Future
	for _, sl := range live {
		nhz := &dv.pools[dv.head]
		ns := &zrSlot{pool: dv.head, pos: nhz.wp, live: true, key: sl.key}
		nhz.slots = append(nhz.slots, ns)
		nhz.wp += e.stride
		if m := nhz.wp - e.cfg.ZRWASectors; m > nhz.mark {
			e.permanentBytes += (m - nhz.mark) * ss
			nhz.mark = m
		}
		a := Append{
			Dev: dev, Zone: sl.rec.Zone, Stripe: sl.rec.Stripe,
			StartLBA: sl.rec.StartLBA, EndLBA: sl.rec.EndLBA,
			Gen: sl.rec.Gen,
		}
		dv.byKey[ns.key] = ns
		sl.live = false
		fut, _ := e.writeSlotLocked(d, dev, dv, ns, a, sl.rec.Payload)
		futs = append(futs, fut)
		e.gcMigrated++
		e.fire("raizn.ppgc.migrate", dev, vz.zone, sl.pos)
	}
	e.mu.Unlock()

	// The copies must be durable before the originals disappear.
	if err := vclock.WaitAll(futs...); err != nil && !errors.Is(err, zns.ErrDeviceFailed) {
		return err
	}
	if err := d.Flush().Wait(); err != nil && !errors.Is(err, zns.ErrDeviceFailed) {
		return err
	}
	if err := d.ResetZone(vz.zone).Wait(); err != nil && !errors.Is(err, zns.ErrDeviceFailed) {
		return err
	}

	e.mu.Lock()
	// Bytes the window never slid past are discarded without programming.
	e.volatileBytes += (vz.wp - vz.mark) * ss
	for _, sl := range vz.slots {
		if sl.live && dv.byKey[sl.key] == sl {
			delete(dv.byKey, sl.key)
		}
	}
	vz.wp, vz.mark, vz.slots = 0, 0, nil
	e.gcRuns++
	e.mu.Unlock()
	e.fire("raizn.ppgc.done", dev, vz.zone, 0)
	return nil
}

// StripeClosed marks the stripe's slot (if any) dead on every device.
// Cheap: map lookups only, safe under the caller's zone lock.
func (e *zraidEngine) StripeClosed(zone int, stripe int64) {
	key := slotKey{zone: zone, stripe: stripe}
	e.mu.Lock()
	for i := range e.devs {
		if sl := e.devs[i].byKey[key]; sl != nil {
			sl.live = false
			delete(e.devs[i].byKey, key)
		}
	}
	e.mu.Unlock()
}

// ZoneReset marks every slot of the logical zone dead on every device.
func (e *zraidEngine) ZoneReset(zone int) {
	e.mu.Lock()
	for i := range e.devs {
		dv := &e.devs[i]
		for key, sl := range dv.byKey {
			if key.zone == zone {
				sl.live = false
				delete(dv.byKey, key)
			}
		}
	}
	e.mu.Unlock()
}

// Scan walks every PP zone of every live device in slot strides,
// decoding and CRC-validating each slot; torn slots drop out. When
// several slots carry the same (zone, stripe) the highest sequence
// number wins. Runs single-threaded at mount time.
func (e *zraidEngine) Scan() ([]Record, error) {
	type best struct {
		rec Record
		seq uint64
	}
	found := make(map[slotKey]best)
	var order []slotKey
	ss := e.cfg.SectorSize
	for i := 0; i < e.cfg.NumDevices; i++ {
		d := e.cfg.Device(i)
		if d == nil {
			continue
		}
		for p := 0; p < e.cfg.PPZones; p++ {
			z := e.cfg.PPZone(p)
			start := d.ZoneStart(z)
			fill := d.Zone(z).WP - start
			buf := make([]byte, e.stride*int64(ss))
			for pos := int64(0); pos < fill; pos += e.stride {
				// A power cut can leave the zone ending inside its last
				// slot: an overwrite persists the slot only as far as its
				// own image reaches.
				slot := buf[:min(e.stride, fill-pos)*int64(ss)]
				if err := d.Read(start+pos, slot).Wait(); err != nil {
					return nil, fmt.Errorf("ppengine: pp zone scan dev %d zone %d: %w", i, z, err)
				}
				rec, seq, ok := decodeSlot(slot, ss, e.cfg.SU)
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
	}
	out := make([]Record, 0, len(order))
	for _, key := range order {
		out = append(out, found[key].rec)
	}
	return out, nil
}

// Maintain force-reclaims every non-head PP zone on every live device.
// Pools packed with live slots report ErrNoPPSpace only when nothing
// could be reclaimed at all.
func (e *zraidEngine) Maintain() error {
	for i := 0; i < e.cfg.NumDevices; i++ {
		d := e.cfg.Device(i)
		if d == nil {
			continue
		}
		e.mu.Lock()
		for e.gcBusy {
			e.cond.Wait()
		}
		e.gcBusy = true
		head := e.devs[i].head
		n := len(e.devs[i].pools)
		e.mu.Unlock()
		var err error
		for p := 0; p < n; p++ {
			if p == head {
				continue
			}
			if gerr := e.gcZone(i, d, p); gerr != nil && !errors.Is(gerr, ErrNoPPSpace) {
				err = gerr
				break
			}
		}
		e.mu.Lock()
		e.gcBusy = false
		e.cond.Broadcast()
		e.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// Format resets every PP zone that holds data on the devices and clears
// the in-memory pool state. Called after mount-time recovery replayed
// and re-checkpointed everything live: the engine starts fresh.
func (e *zraidEngine) Format() error {
	e.mu.Lock()
	for e.gcBusy {
		e.cond.Wait()
	}
	e.gcBusy = true
	e.mu.Unlock()
	var futs []*vclock.Future
	for i := 0; i < e.cfg.NumDevices; i++ {
		d := e.cfg.Device(i)
		if d == nil {
			continue
		}
		for p := 0; p < e.cfg.PPZones; p++ {
			z := e.cfg.PPZone(p)
			if d.Zone(z).State != zns.ZoneEmpty {
				futs = append(futs, d.ResetZone(z))
			}
		}
	}
	err := vclock.WaitAll(futs...)
	e.mu.Lock()
	for i := range e.devs {
		dv := &e.devs[i]
		dv.head = 0
		dv.byKey = make(map[slotKey]*zrSlot)
		for p := range dv.pools {
			dv.pools[p].wp, dv.pools[p].mark, dv.pools[p].slots = 0, 0, nil
		}
	}
	e.gcBusy = false
	e.cond.Broadcast()
	e.mu.Unlock()
	if err != nil && !errors.Is(err, zns.ErrDeviceFailed) {
		return err
	}
	return nil
}
