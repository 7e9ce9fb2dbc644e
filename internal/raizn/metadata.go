package raizn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"raizn/internal/obs"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// Metadata is persisted as log-structured records in the reserved
// metadata zones (paper §4.3). Every record starts with a 32-byte header
// (Figure 3) padded to one sector, optionally followed by an external
// payload (partial parity or relocated data). Small metadata lives inline
// in the header sector.
//
// Layout deviation from Figure 3: the paper stores magic(4) type(4)
// start(8) end(8) gen(8); this implementation splits the type field into
// type(2) + inline-length(2) so inline payload sizes are self-describing.

const (
	mdMagic     = 0x5A52314E // "ZR1N"
	headerBytes = 32
	maxInline   = 4064 // sector(4096) - header(32)
)

// Record types.
type recType uint16

const (
	recSuperblock recType = iota + 1
	recGenCounters
	recResetWAL
	recPartialParity
	recRelocData
	recRelocParity
	recChecksums
	// Type 8 is retired (it carried the flight recorder's black box): a
	// header of that type decodes with no payload and mount ignores it.

	// recCheckpoint flags a record written by the metadata garbage
	// collector rather than by normal operation (paper Fig. 4).
	recCheckpoint recType = 0x80
)

func (t recType) base() recType { return t &^ recCheckpoint }

var recNames = [...]string{recSuperblock: "superblock", recGenCounters: "gen-counters",
	recResetWAL: "reset-wal", recPartialParity: "partial-parity", recRelocData: "reloc-data",
	recRelocParity: "reloc-parity", recChecksums: "stripe-checksums"}

func (t recType) String() string {
	s := fmt.Sprintf("recType(%d)", uint16(t))
	if b := t.base(); int(b) < len(recNames) && recNames[b] != "" {
		s = recNames[b]
	}
	if t&recCheckpoint != 0 {
		s += "+ckpt"
	}
	return s
}

// record is one decoded metadata log entry.
type record struct {
	typ      recType
	startLBA int64 // logical range the record describes
	endLBA   int64
	gen      uint64 // generation of the logical zone (or sequence number)
	inline   []byte // inline payload (<= maxInline)
	payload  []byte // external payload sectors, if any

	dev int   // array slot of the device the record was read from (set by gather)
	pba int64 // absolute sector of the record header (set by scan)
}

// payloadSectors returns how many external payload sectors follow the
// header sector for this record type, derived from the header fields.
func (r *record) payloadSectors(l *layout) int64 {
	switch r.typ.base() {
	case recPartialParity:
		// Parity image bytes cover the affected intra-unit region(s):
		// min(write length, one stripe unit), rounded up to sectors.
		return min(r.endLBA-r.startLBA, l.su)
	case recRelocData, recRelocParity:
		return r.endLBA - r.startLBA
	default:
		return 0
	}
}

// sectors returns how many sectors the record occupies on the device: its
// header sector plus its payload sectors.
func (r *record) sectors(sectorSize int) int64 {
	return 1 + int64((len(r.payload)+sectorSize-1)/sectorSize)
}

// encode serializes the record into freshly allocated whole sectors.
func (r *record) encode(sectorSize int) []byte {
	buf := make([]byte, r.sectors(sectorSize)*int64(sectorSize))
	r.encodeInto(buf[:sectorSize])
	copy(buf[sectorSize:], r.payload)
	return buf
}

// encodeInto writes the record's header sector — the 32 header bytes, the
// inline payload, zeroes — over hdr, whatever hdr held; the payload
// sectors are the caller's business. It is how a record is encoded in
// place, in the buffer that goes to the device (hdr may be where r.inline
// already lives).
func (r *record) encodeInto(hdr []byte) {
	if len(r.inline) > maxInline {
		panic("raizn: inline payload too large")
	}
	binary.LittleEndian.PutUint32(hdr[0:4], mdMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], uint16(r.typ))
	binary.LittleEndian.PutUint16(hdr[6:8], uint16(len(r.inline)))
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(r.startLBA))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(r.endLBA))
	binary.LittleEndian.PutUint64(hdr[24:32], r.gen)
	n := copy(hdr[headerBytes:], r.inline)
	clear(hdr[headerBytes+n:])
}

// mdKind selects which metadata log a record belongs to. Partial parity
// gets its own zone so its churn does not force GC of the rarely-updated
// general metadata (paper §4.3).
type mdKind int

const (
	mdGeneral mdKind = iota
	mdParity
	mdKinds
)

func kindOf(t recType) mdKind {
	if t.base() == recPartialParity {
		return mdParity
	}
	return mdGeneral
}

var errMDFull = errors.New("raizn: metadata zone out of space mid-GC")

// mdManager manages one device's reserved metadata zones: one active zone
// per kind plus a pool of swap zones used for garbage collection.
//
// Concurrency: m.mu protects the role assignments and serializes zone
// appends; it is NEVER held across a blocking wait. A roll-over switches
// the active zone and issues the checkpoint inside a critical section
// (gcBusy) in which no simulated time passes; the waiting half — checkpoint
// durable, redundant zones reset and returned to the swap pool — runs as a
// chain of future callbacks (reclaiming). At most one reclaim is in flight
// per device; an append that needs a second roll-over before it lands
// parks on the vclock-aware condition. Every roll-over but a full log's own
// is one round of rollRound: a full log's siblings (rollSiblings), a mount
// (rollMount), Maintain and a device replacement.
type mdManager struct {
	vol *Volume // for checkpoint callbacks and geometry
	dev int

	mu         sync.Mutex
	cond       *vclock.Cond
	gcBusy     bool         // roll-over critical section in progress
	reclaiming bool         // a roll-over's reclaim has not finished
	reclaimErr error        // outcome of the last reclaim
	active     [mdKinds]int // physical zone index per kind; -1 (mount only): none yet
	swap       []int        // free metadata zone indices
	// Per metadata zone, one bit per kind: held while the zone is, or was
	// since its reset, that kind's log; dropped once a durable checkpoint
	// elsewhere, written after the zone stopped taking the kind's
	// appends, holds everything the zone's records of it did.
	held, dropped []uint8
}

func newMDManager(v *Volume, dev int) *mdManager {
	m := &mdManager{vol: v, dev: dev, held: make([]uint8, v.lt.mdZones), dropped: make([]uint8, v.lt.mdZones)}
	m.cond = v.clk.NewCond(&m.mu)
	m.active[mdGeneral] = v.lt.mdZoneIndex(0)
	m.active[mdParity] = v.lt.mdZoneIndex(1)
	m.held[0], m.held[1] = 1<<mdGeneral, 1<<mdParity
	for i := 2; i < v.lt.mdZones; i++ {
		m.swap = append(m.swap, v.lt.mdZoneIndex(i))
	}
	return m
}

// roomiest returns the metadata zone with the most room, at least need
// sectors, among those holding exactly the kinds of only (0: any zone), or
// -1.
func (m *mdManager) roomiest(d *zns.Device, only uint8, need int64) int {
	best, room := -1, need-1
	for i, h := range m.held {
		z := m.vol.lt.mdZoneIndex(i)
		if free := mdZoneRoom(d, z); (only == 0 || h == only) && free > room {
			best, room = z, free
		}
	}
	return best
}

// append writes a record to the device's metadata log of the appropriate
// kind, rolling the log over to a swap zone if the active zone is full.
// It returns the completion future and the absolute PBA of the record
// header. flags is applied to the device append (FUA for write-ahead
// logging).
func (m *mdManager) append(r *record, flags zns.Flag) (*vclock.Future, int64, error) {
	return m.appendSpan(nil, r, flags)
}

// appendSpan is append with a tracing span; the device marks the span's
// queue and media phases and ends it when the append completes.
func (m *mdManager) appendSpan(sp *obs.Span, r *record, flags zns.Flag) (*vclock.Future, int64, error) {
	return m.appendEncoded(sp, nil, r.typ, r.encode(m.vol.sectorSize), flags)
}

// appendEncoded appends an encoded record (header sector + payload
// sectors) to the active zone of its kind. This is the one place the
// roll-over protocol meets the foreground: an append that does not fit
// rolls the log over — which costs no simulated time — and retries in the
// new zone; only when the previous roll-over's old zone is still being
// reclaimed does it wait.
//
// The append completes fut, the caller's (nil: the device allocates a
// future), which is returned; an error return leaves fut incomplete.
func (m *mdManager) appendEncoded(sp *obs.Span, fut *vclock.Future, typ recType, buf []byte, flags zns.Flag) (*vclock.Future, int64, error) {
	v := m.vol
	dev := v.loadDevs().devs[m.dev]
	if dev == nil {
		sp.End(zns.ErrDeviceFailed)
		return nil, -1, zns.ErrDeviceFailed
	}
	need := int64(len(buf) / v.sectorSize)
	kind := kindOf(typ)

	var err error
	waited := false
	m.mu.Lock()
	for rolls := 0; ; {
		if m.gcBusy {
			m.cond.Wait()
			continue
		}
		z := m.active[kind]
		if mdZoneRoom(dev, z) >= need {
			pba, f := dev.AppendSpan(sp, fut, z, buf, flags)
			if pba >= 0 {
				m.mu.Unlock()
				v.led[m.dev].submitted(flags&zns.FUA != 0)
				v.accountMDBytes(typ, 1, need-1)
				v.recordMDEvent(m.dev, z, typ, 1, need-1)
				name := "raizn.md.append"
				if typ.base() == recPartialParity {
					name = "raizn.pp.write"
				}
				v.fireHook(name, m.dev, z, pba)
				return f, pba, nil
			}
			// Fall through to a roll-over on append failure. The device
			// completed fut with the failure; nobody has seen it yet.
			if fut != nil {
				fut.Rearm()
			}
		}
		if m.reclaiming {
			// Back-pressure: the swap pool is empty until the previous
			// roll-over's old zone has been reset. Re-check afterwards —
			// another waiter may have rolled this log over already.
			if !waited {
				waited = true
				v.stats.mdGCWaits.Add(1)
			}
			m.cond.Wait()
			continue
		}
		if rolls == 3 {
			err = errMDFull
			break
		}
		rolls++
		if err = m.rollOverLocked(kind, dev, true); err != nil {
			break
		}
		m.mu.Unlock()
		v.rollSiblings(m.dev, kind)
		m.mu.Lock()
	}
	m.mu.Unlock()
	sp.End(err)
	return nil, -1, err
}

// rollSiblings makes a roll-over array-wide: device from has just rolled its
// log of kind over, and every live sibling whose active zone of that kind is
// at least half full, with no roll-over or reclaim under way, rolls at the
// same virtual instant, on this goroutine, in device order. The checkpoints
// and the 2 ms resets of one round then overlap and the array's writers
// meet one stall, not one per device. A fixed rule: below half full a
// freshly replaced or lightly used device would burn a reset for nothing.
// A sibling that cannot roll (no swap zone) reports it on its own append.
func (v *Volume) rollSiblings(from int, kind mdKind) {
	n, _ := v.rollRound(v.loadDevs().md, kind, true, func(m *mdManager, d *zns.Device) bool {
		return m.dev != from && mdZoneRoom(d, m.active[kind]) <= d.Config().ZoneCap/2
	})
	v.stats.mdGCCoordinated.Add(int64(n))
}

// rollRound is the one way a metadata log rolls over but a full log's own:
// the log of kind rolls over (rollOverLocked; gc marks metadata GCs) on each
// manager of ms with a live device, in order, at one virtual instant when
// none has a roll-over under way. With pick nil each manager rolls once its
// previous reclaim has finished, and rollRound waits for every reclaim;
// otherwise only the idle managers pick accepts (under m.mu) roll, and
// nothing is waited for. It returns how many rolled and the first error.
func (v *Volume) rollRound(ms []*mdManager, kind mdKind, gc bool, pick func(*mdManager, *zns.Device) bool) (rolled int, first error) {
	for _, m := range ms {
		if m == nil {
			continue
		}
		m.mu.Lock()
		for pick == nil && (m.gcBusy || m.reclaiming) {
			m.cond.Wait()
		}
		if d := v.loadDevs().devs[m.dev]; d != nil && !m.gcBusy && !m.reclaiming && (pick == nil || pick(m, d)) {
			if err := m.rollOverLocked(kind, d, gc); err == nil {
				rolled++
			} else if first == nil {
				first = err
			}
		}
		m.mu.Unlock()
	}
	for _, m := range ms {
		if m == nil || pick != nil {
			continue
		}
		if err := m.quiesce(); err != nil && first == nil {
			first = err
		}
	}
	return rolled, first
}

// newRollManager builds device dev's metadata manager from what its zones
// hold, recs (a mount's read of them; nil on a blank replacement): a zone
// holds the kinds of the records found in it, the empty zones are the pool,
// and no zone is active until rolled into. A non-empty zone holding no
// record (a torn tail alone) is in neither role, so the first reclaim
// resets it.
func newRollManager(v *Volume, dev int, d *zns.Device, recs []record) *mdManager {
	m := &mdManager{vol: v, dev: dev, held: make([]uint8, v.lt.mdZones), dropped: make([]uint8, v.lt.mdZones), active: [mdKinds]int{-1, -1}}
	m.cond = v.clk.NewCond(&m.mu)
	for _, r := range recs {
		m.held[int(r.pba/v.lt.physZoneSize)-v.lt.numZones] |= 1 << kindOf(r.typ)
	}
	for j := range m.held {
		if z := v.lt.mdZoneIndex(j); d.Zone(z).WP == d.ZoneStart(z) && d.Zone(z).State != zns.ZoneFull {
			m.swap = append(m.swap, z)
		}
	}
	return m
}

// rollMount rolls both metadata logs of every live device over (Mount),
// general first, each kind on every device at once, and waits for every
// reclaim. Each device's manager is built from Mount's read of its zones
// (newRollManager). A device left with an active zone holding the other
// kind's records, where a checkpoint went in place for want of room, rolls
// both again, into the swap zones the first round freed. These roll-overs
// are the mount's own: not counted as metadata GCs, journaled or crossing
// raizn.mdgc.* points.
func (v *Volume) rollMount(logs []*mdLog) error {
	var ms []*mdManager
	v.mu.Lock()
	for i, d := range v.devs {
		if d != nil {
			v.md[i] = newRollManager(v, i, d, logs[i].recs)
			ms = append(ms, v.md[i])
		}
	}
	v.publishDevTableLocked()
	v.mu.Unlock()
	for round := 0; round < 2 && len(ms) > 0; round++ {
		for kind := range mdKinds {
			if _, err := v.rollRound(ms, kind, false, nil); err != nil {
				return err
			}
		}
		ms = slices.DeleteFunc(ms, func(m *mdManager) bool {
			return m.held[m.active[mdGeneral]-v.lt.numZones] == 1<<mdGeneral &&
				m.held[m.active[mdParity]-v.lt.numZones] == 1<<mdParity
		})
	}
	return nil
}

// quiesce waits for an in-flight reclaim, so that no callback of this
// manager touches the device's metadata zones afterwards.
func (m *mdManager) quiesce() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.quiesceLocked()
}

func (m *mdManager) quiesceLocked() error {
	for m.gcBusy || m.reclaiming {
		m.cond.Wait()
	}
	return m.reclaimErr
}

// rollOverLocked rolls the log of kind over (paper Fig. 4): the checkpoint
// of live metadata is built, the lowest swap zone becomes active and the
// checkpoint is issued into it, FUA on its last record, all at one virtual
// instant, so every checkpoint record precedes every foreground record in
// the new zone and the caller's append proceeds without waiting. With no
// swap zone — only a crash inside a roll-over window leaves a mounting
// device without one — the checkpoint goes in place, behind the records of
// the zone with the most room among those holding only kind's records or,
// should it not fit there, of the roomiest zone. gc marks a metadata GC: counted, journaled,
// crossing the raizn.mdgc.* hook points.
//
// Caller holds m.mu with no roll-over or reclaim in progress; m.mu is
// released while the checkpoint is built (it takes zone locks) and gcBusy
// parks concurrent appends meanwhile.
func (m *mdManager) rollOverLocked(kind mdKind, dev *zns.Device, gc bool) error {
	if len(m.swap) == 0 && m.reclaimErr != nil {
		return m.reclaimErr
	}
	v := m.vol
	m.gcBusy = true
	m.mu.Unlock()
	recs := v.checkpointRecords(m.dev, kind)
	m.mu.Lock()
	old, next := m.active[kind], -1
	if len(m.swap) > 0 {
		i := slices.Index(m.swap, slices.Min(m.swap))
		next = m.swap[i]
		m.swap = slices.Delete(m.swap, i, i+1)
	} else {
		var need int64
		for _, r := range recs {
			need += r.sectors(v.sectorSize)
		}
		if next = m.roomiest(dev, 1<<kind, need); next < 0 {
			next = m.roomiest(dev, 0, need)
		}
	}
	if next < 0 {
		m.gcBusy = false
		m.cond.Broadcast()
		return errMDFull
	}
	m.active[kind] = next
	m.held[next-v.lt.numZones] |= 1 << kind
	m.dropped[next-v.lt.numZones] &^= 1 << kind
	m.reclaiming, m.reclaimErr = true, nil
	m.mu.Unlock()

	if gc {
		v.stats.metadataGCs.Add(1)
		v.jrn.Record(obs.EvMetadataGC, m.dev, old, 1, int64(next), int64(kind), 0)
		v.fireHook("raizn.mdgc.begin", m.dev, old, int64(next))
	}
	whenAll(v.issueCheckpoint(dev, next, m.dev, kind, recs), func(err error) {
		m.reclaim(dev, kind, old, err, gc)
	})

	m.mu.Lock()
	m.gcBusy = false
	m.cond.Broadcast()
	return nil
}

// reclaim is the background half of a roll-over and the one rule that
// resets a metadata zone: once kind's checkpoint is durable, every zone but
// kind's active one drops kind, and a zone that has dropped all it holds,
// is active for nothing and is not in the pool is reset and joins it. So a
// zone is reset only once every kind it held has a durable checkpoint
// elsewhere, written after it stopped taking that kind's appends. At
// runtime that is the rolled-out zone, old. Such zones are reset one at a
// time (a device's resets take its write pipe in turn anyway), each
// completion calling reclaim again; the ledger stops owing a reset zone's
// records anything. It runs on the goroutine that completed the last
// append or reset and must not block. dev is the device the roll-over
// started on, so a reclaim outliving a device replacement never touches
// the replacement's zones.
func (m *mdManager) reclaim(dev *zns.Device, kind mdKind, old int, err error, gc bool) {
	if err != nil {
		m.reclaimDone(old, err, gc)
		return
	}
	lt := m.vol.lt
	z := -1
	m.mu.Lock()
	for i, h := range m.held {
		c := lt.mdZoneIndex(i)
		if c != m.active[kind] {
			m.dropped[i] |= 1 << kind
		}
		if z < 0 && h&^m.dropped[i] == 0 && !slices.Contains(m.active[:], c) && !slices.Contains(m.swap, c) {
			z = c
		}
	}
	m.mu.Unlock()
	if z < 0 {
		m.reclaimDone(old, nil, gc)
		return
	}
	m.vol.led[m.dev].retire(z - lt.numZones)
	if gc {
		m.vol.fireHook("raizn.mdgc.ckpt", m.dev, old, 0)
	}
	fut := dev.ResetZone(z)
	if gc {
		m.vol.fireHook("raizn.mdgc.reset", m.dev, old, 0)
	}
	fut.Subscribe(func(err error) {
		if err == nil {
			m.mu.Lock()
			m.held[z-lt.numZones], m.dropped[z-lt.numZones] = 0, 0
			m.swap = append(m.swap, z)
			m.mu.Unlock()
		}
		m.reclaim(dev, kind, old, err, gc)
	})
}

// reclaimDone ends the reclaim; on failure (device failed, power loss) the
// zone being reset stays out of the pool and waiters are woken with the
// error. The journal event and the crash point precede the wake-up, so
// they are ordered before whatever a woken waiter does at the same virtual
// instant.
func (m *mdManager) reclaimDone(old int, err error, gc bool) {
	if gc {
		var failed int64
		if err != nil {
			failed = 1
		}
		m.vol.jrn.Record(obs.EvMetadataGC, m.dev, old, 0, 0, 0, failed)
		if err == nil {
			m.vol.fireHook("raizn.mdgc.done", m.dev, old, 0)
		}
	}
	m.mu.Lock()
	m.reclaimErr = err
	m.reclaiming = false
	m.cond.Broadcast()
	m.mu.Unlock()
}

// whenAll runs fn once every future has completed, with the first error.
// fn runs on the goroutine completing the last future (inline if all are
// already complete, or there are none).
func whenAll(futs []*vclock.Future, fn func(error)) {
	if len(futs) == 0 {
		fn(nil)
		return
	}
	w := &struct {
		mu    sync.Mutex
		first error
		left  int
	}{left: len(futs)}
	done := func(err error) {
		w.mu.Lock()
		if err != nil && w.first == nil {
			w.first = err
		}
		w.left--
		last, e := w.left == 0, w.first
		w.mu.Unlock()
		if last {
			fn(e)
		}
	}
	for _, f := range futs {
		f.Subscribe(done)
	}
}

// mdLog is one read of a device's metadata zones: one Read of [start, wp)
// per non-empty zone, and, once wait returns, the records decodeLog found
// in them, their payloads aliasing the read buffers.
type mdLog struct {
	lt   *layout
	ss   int
	bufs [][]byte // per zone; its length is the zone's fill when read
	futs []*vclock.Future
	recs []record
}

// readMDZones issues the reads and returns without waiting, so that a
// mount reads every device at once.
func readMDZones(dev *zns.Device, lt *layout, sectorSize int) *mdLog {
	l := &mdLog{lt: lt, ss: sectorSize, bufs: make([][]byte, lt.mdZones), futs: make([]*vclock.Future, lt.mdZones)}
	for i := range l.bufs {
		z := lt.mdZoneIndex(i)
		if fill := dev.Zone(z).WP - dev.ZoneStart(z); fill > 0 {
			l.bufs[i] = make([]byte, fill*int64(sectorSize))
			l.futs[i] = dev.Read(dev.ZoneStart(z), l.bufs[i])
		}
	}
	return l
}

func (l *mdLog) wait() error {
	for i, fut := range l.futs {
		if fut == nil {
			continue
		}
		z := l.lt.mdZoneIndex(i)
		if err := fut.Wait(); err != nil {
			return fmt.Errorf("raizn: metadata scan zone %d: %w", z, err)
		}
		for _, r := range decodeLog(l.bufs[i], l.lt, l.ss) {
			r.pba += int64(z) * l.lt.physZoneSize
			l.recs = append(l.recs, r)
		}
	}
	return nil
}

// decodeLog decodes one metadata zone's bytes, [start, wp), into its
// records in log order, each with its header's sector offset as pba. It is
// pure and never panics. It skips a sector that is not a record header
// (garbage, or a dropped header's payload) and a header whose payload
// length is negative, and stops at a record whose payload runs past the
// zone: a torn tail. So every record ends inside zone, positions strictly
// increase, and payloads alias zone.
func decodeLog(zone []byte, lt *layout, sectorSize int) []record {
	var out []record
	le := binary.LittleEndian
	ss, n := int64(sectorSize), int64(len(zone)/sectorSize)
	for pba := int64(0); pba < n; pba++ {
		h := zone[pba*ss : (pba+1)*ss]
		if len(h) < headerBytes || le.Uint32(h) != mdMagic {
			continue
		}
		r := record{
			typ:      recType(le.Uint16(h[4:6])),
			startLBA: int64(le.Uint64(h[8:16])),
			endLBA:   int64(le.Uint64(h[16:24])),
			gen:      le.Uint64(h[24:32]),
			pba:      pba,
		}
		inl, np := int(le.Uint16(h[6:8])), r.payloadSectors(lt)
		if inl > maxInline || headerBytes+inl > len(h) || np < 0 {
			continue
		}
		if np > n-pba-1 {
			break
		}
		r.inline, r.payload = h[headerBytes:headerBytes+inl], zone[(pba+1)*ss:(pba+1+np)*ss]
		out = append(out, r)
		pba += np
	}
	return out
}

// genCounterBlock encodes a block of generation counters (paper §4.3:
// 32-byte header + 508 8-byte counters, the whole 4 KiB persisted on
// every update). blockIdx selects which 508-zone window this block
// covers.
const gensPerBlock = 507 // one slot is used by the block index

func encodeGenBlock(blockIdx int, gens []uint64) []byte {
	buf := make([]byte, maxInline)
	binary.LittleEndian.PutUint64(buf[0:8], uint64(blockIdx))
	lo := blockIdx * gensPerBlock
	for i := 0; i < gensPerBlock && lo+i < len(gens); i++ {
		binary.LittleEndian.PutUint64(buf[8+8*i:16+8*i], gens[lo+i])
	}
	return buf
}

func decodeGenBlock(inline []byte) (blockIdx int, gens []uint64, ok bool) {
	if len(inline) < 8 {
		return 0, nil, false
	}
	blockIdx = int(binary.LittleEndian.Uint64(inline[0:8]))
	n := (len(inline) - 8) / 8
	gens = make([]uint64, n)
	for i := 0; i < n; i++ {
		gens[i] = binary.LittleEndian.Uint64(inline[8+8*i : 16+8*i])
	}
	return blockIdx, gens, true
}

// superblock is the per-device array descriptor, written at create time
// and checkpointed by metadata GC.
type superblock struct {
	version   uint32
	arrayID   uint64
	numDev    uint32
	devIndex  uint32
	su        int64
	physZones uint32 // total physical zones expected on the device
	mdZones   uint32
}

func (sb *superblock) encode() []byte {
	buf := make([]byte, 40)
	binary.LittleEndian.PutUint32(buf[0:4], sb.version)
	binary.LittleEndian.PutUint64(buf[4:12], sb.arrayID)
	binary.LittleEndian.PutUint32(buf[12:16], sb.numDev)
	binary.LittleEndian.PutUint32(buf[16:20], sb.devIndex)
	binary.LittleEndian.PutUint64(buf[20:28], uint64(sb.su))
	binary.LittleEndian.PutUint32(buf[28:32], sb.physZones)
	binary.LittleEndian.PutUint32(buf[32:36], sb.mdZones)
	return buf
}

func decodeSuperblock(inline []byte) (superblock, bool) {
	if len(inline) < 40 {
		return superblock{}, false
	}
	return superblock{
		version:   binary.LittleEndian.Uint32(inline[0:4]),
		arrayID:   binary.LittleEndian.Uint64(inline[4:12]),
		numDev:    binary.LittleEndian.Uint32(inline[12:16]),
		devIndex:  binary.LittleEndian.Uint32(inline[16:20]),
		su:        int64(binary.LittleEndian.Uint64(inline[20:28])),
		physZones: binary.LittleEndian.Uint32(inline[28:32]),
		mdZones:   binary.LittleEndian.Uint32(inline[32:36]),
	}, true
}

// resetWAL payload: the logical zone index being reset.
func encodeResetWAL(zone int) []byte {
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint64(buf, uint64(zone))
	return buf
}

func decodeResetWAL(inline []byte) (int, bool) {
	if len(inline) < 8 {
		return 0, false
	}
	return int(binary.LittleEndian.Uint64(inline)), true
}
