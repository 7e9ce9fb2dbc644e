// Package mdraid implements the paper's baseline: Linux md RAID-5 over
// conventional (FTL) SSDs, as configured in §6 — left-symmetric rotating
// parity, a stripe cache that batches sequential writes into full-stripe
// writes and falls back to read-modify-write for sub-stripe updates, a
// whole-address-space resync on device replacement, and no journal
// ("mdraid was configured to run without a journal volume, ensuring
// maximum performance").
package mdraid

import (
	"errors"
	"sync"
	"time"

	"raizn/internal/blockdev"
	"raizn/internal/parity"
	"raizn/internal/vclock"
)

// Errors returned by volume operations.
var (
	ErrOutOfRange    = errors.New("mdraid: address out of range")
	ErrUnaligned     = errors.New("mdraid: IO not sector aligned")
	ErrDegraded      = errors.New("mdraid: array already degraded")
	ErrNotEnoughDevs = errors.New("mdraid: not enough devices")
	ErrInconsistent  = errors.New("mdraid: double failure")
)

// The stripe cache's fixed policy, the paper's mdraid setup scaled down.
const (
	// stripeCacheBytes bounds the stripe cache (mdraid's maximum, used
	// in the paper, is 128 MiB).
	stripeCacheBytes = 8 << 20
	// handleDelay is how long an incomplete stripe may wait for more
	// data before it is handled with a read-modify-write. It models
	// md's plugging/batching.
	handleDelay = 50 * time.Microsecond
)

// stripeLine is one cached stripe: data plus dirty tracking.
type stripeLine struct {
	stripe   int64
	data     []byte // d*chunk sectors
	dirty    []bool // per sector: written since last handle
	inflight []bool // per sector: being written by the current handle
	handling bool
	timerSet bool
	waiters  []*vclock.Future // writes waiting for the current dirty set
	inflWait []*vclock.Future // writes covered by the in-flight handle

	lruPrev, lruNext *stripeLine
}

// Volume is an md-style RAID-5 logical volume over block devices.
type Volume struct {
	clk *vclock.Clock

	mu       sync.Mutex
	devs     []*blockdev.Device // nil = failed slot
	n, d     int
	chunk    int64
	perDev   int64 // chunks per device
	degraded int

	lines    map[int64]*stripeLine
	lruHead  *stripeLine // most recent
	lruTail  *stripeLine
	maxLines int

	cond           *vclock.Cond // waits on stripe handling (resync gate)
	resyncing      bool
	resyncedStripe []bool // during resync: stripes already reconstructed

	journal *journal // optional write journal (closes the write hole)
}

// New assembles a RAID-5 volume over the devices (>= 3, identical) with
// chunks ("stripe units") of chunkSectors sectors; the paper's setup,
// scaled down, uses 16 (64 KiB).
func New(clk *vclock.Clock, devs []*blockdev.Device, chunkSectors int64) (*Volume, error) {
	if len(devs) < 3 {
		return nil, ErrNotEnoughDevs
	}
	if chunkSectors <= 0 {
		return nil, errors.New("mdraid: chunk size must be positive")
	}
	ref := devs[0].Config()
	for _, d := range devs {
		c := d.Config()
		if c.SectorSize != ref.SectorSize || c.NumSectors != ref.NumSectors {
			return nil, errors.New("mdraid: devices have mismatched geometry")
		}
	}
	v := &Volume{
		clk:      clk,
		devs:     append([]*blockdev.Device(nil), devs...),
		n:        len(devs),
		d:        len(devs) - 1,
		chunk:    chunkSectors,
		perDev:   ref.NumSectors / chunkSectors,
		degraded: -1,
		lines:    make(map[int64]*stripeLine),
	}
	v.cond = clk.NewCond(&v.mu)
	lineBytes := v.stripeSectors() * int64(ref.SectorSize)
	v.maxLines = int(stripeCacheBytes / lineBytes)
	if v.maxLines < 4 {
		v.maxLines = 4
	}
	return v, nil
}

func (v *Volume) sectorSize() int { return v.devs0().Config().SectorSize }

func (v *Volume) devs0() *blockdev.Device {
	for _, d := range v.devs {
		if d != nil {
			return d
		}
	}
	return nil
}

// SectorSize returns the logical block size.
func (v *Volume) SectorSize() int { return v.sectorSize() }

// NumSectors returns the logical capacity: D data chunks per stripe row.
func (v *Volume) NumSectors() int64 { return v.perDev * int64(v.d) * v.chunk }

func (v *Volume) stripeSectors() int64 { return int64(v.d) * v.chunk }

// Degraded returns the failed device index, or -1.
func (v *Volume) Degraded() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.degraded
}

// parityDev returns the parity device of stripe s (left-symmetric).
func (v *Volume) parityDev(s int64) int { return v.n - 1 - int(s%int64(v.n)) }

// dataDev returns the device holding data chunk u of stripe s.
func (v *Volume) dataDev(s int64, u int) int { return (v.parityDev(s) + 1 + u) % v.n }

// devPBA returns the on-device sector of intra-chunk offset `intra` of
// chunk u in stripe s.
func (v *Volume) devPBA(s int64, intra int64) int64 { return s*v.chunk + intra }

// FailDevice marks device i failed.
func (v *Volume) FailDevice(i int) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.degraded == i {
		return nil
	}
	if v.degraded >= 0 {
		return ErrDegraded
	}
	v.degraded = i
	if v.devs[i] != nil {
		v.devs[i].Fail()
	}
	v.devs[i] = nil
	return nil
}

func (v *Volume) dev(i int) *blockdev.Device {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.devs[i]
}

// devForStripe returns the device at slot i for IO against stripe s.
// During a resync the replacement device is invisible for stripes that
// have not been reconstructed yet (their chunks still hold stale data).
func (v *Volume) devForStripe(i int, s int64) *blockdev.Device {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.resyncing && i == v.degraded && v.resyncedStripe != nil && !v.resyncedStripe[s] {
		return nil
	}
	return v.devs[i]
}

// --- stripe cache management (caller holds v.mu) ---

func (v *Volume) lineLocked(s int64) *stripeLine {
	if l, ok := v.lines[s]; ok {
		v.lruTouchLocked(l)
		return l
	}
	// Evict clean lines beyond the cache bound.
	for len(v.lines) >= v.maxLines {
		victim := v.lruTail
		for victim != nil && (victim.handling || anySet(victim.dirty)) {
			victim = victim.lruPrev
		}
		if victim == nil {
			break // everything busy; allow temporary overflow like md
		}
		v.lruRemoveLocked(victim)
		delete(v.lines, victim.stripe)
	}
	ss := int64(v.sectorSize())
	l := &stripeLine{
		stripe:   s,
		data:     make([]byte, v.stripeSectors()*ss),
		dirty:    make([]bool, v.stripeSectors()),
		inflight: make([]bool, v.stripeSectors()),
	}
	v.lines[s] = l
	v.lruInsertLocked(l)
	return l
}

func anySet(b []bool) bool {
	for _, x := range b {
		if x {
			return true
		}
	}
	return false
}

func allSet(b []bool) bool {
	for _, x := range b {
		if !x {
			return false
		}
	}
	return true
}

func (v *Volume) lruInsertLocked(l *stripeLine) {
	l.lruPrev = nil
	l.lruNext = v.lruHead
	if v.lruHead != nil {
		v.lruHead.lruPrev = l
	}
	v.lruHead = l
	if v.lruTail == nil {
		v.lruTail = l
	}
}

func (v *Volume) lruRemoveLocked(l *stripeLine) {
	if l.lruPrev != nil {
		l.lruPrev.lruNext = l.lruNext
	} else {
		v.lruHead = l.lruNext
	}
	if l.lruNext != nil {
		l.lruNext.lruPrev = l.lruPrev
	} else {
		v.lruTail = l.lruPrev
	}
	l.lruPrev, l.lruNext = nil, nil
}

func (v *Volume) lruTouchLocked(l *stripeLine) {
	v.lruRemoveLocked(l)
	v.lruInsertLocked(l)
}

// SubmitWrite buffers the write in the stripe cache and returns a future
// that completes when the data and its parity have reached the member
// devices (md completes a bio after the stripe write finishes).
func (v *Volume) SubmitWrite(lba int64, data []byte) *vclock.Future {
	ss := int64(v.sectorSize())
	if len(data) == 0 || int64(len(data))%ss != 0 {
		return v.clk.Completed(ErrUnaligned)
	}
	n := int64(len(data)) / ss
	if lba < 0 || lba+n > v.NumSectors() {
		return v.clk.Completed(ErrOutOfRange)
	}

	result := v.clk.NewFuture()
	remaining := 0
	var wg *countdown

	v.mu.Lock()
	stripeSec := v.stripeSectors()
	pos := lba
	rest := data
	var toHandle []int64
	var toTimer []int64
	for len(rest) > 0 {
		s := pos / stripeSec
		in := pos % stripeSec
		cnt := stripeSec - in
		if avail := int64(len(rest)) / ss; cnt > avail {
			cnt = avail
		}
		l := v.lineLocked(s)
		copy(l.data[in*ss:], rest[:cnt*ss])
		for i := in; i < in+cnt; i++ {
			l.dirty[i] = true
		}
		remaining++
		pos += cnt
		rest = rest[cnt*ss:]
		if allSet(l.dirty) {
			toHandle = append(toHandle, s)
		} else if !l.timerSet && !l.handling {
			l.timerSet = true
			toTimer = append(toTimer, s)
		}
	}
	wg = &countdown{n: remaining, fut: result}
	// Register the waiter on each touched stripe.
	pos = lba
	rest = data
	for n2 := n; n2 > 0; {
		s := pos / stripeSec
		in := pos % stripeSec
		cnt := stripeSec - in
		if cnt > n2 {
			cnt = n2
		}
		l := v.lines[s]
		l.waiters = append(l.waiters, wrapCountdown(v.clk, wg))
		pos += cnt
		n2 -= cnt
	}
	v.mu.Unlock()

	for _, s := range toHandle {
		v.kickHandle(s)
	}
	for _, s := range toTimer {
		s := s
		v.clk.AfterFunc(handleDelay, func() {
			v.mu.Lock()
			l, ok := v.lines[s]
			if ok {
				l.timerSet = false
			}
			v.mu.Unlock()
			if ok {
				v.kickHandle(s)
			}
		})
	}
	return result
}

// countdown completes fut after n Done calls.
type countdown struct {
	mu  sync.Mutex
	n   int
	err error
	fut *vclock.Future
}

func (c *countdown) done(err error) {
	c.mu.Lock()
	if err != nil && c.err == nil {
		c.err = err
	}
	c.n--
	fire := c.n == 0
	ferr := c.err
	c.mu.Unlock()
	if fire {
		c.fut.Complete(ferr)
	}
}

// wrapCountdown returns a future whose completion forwards into the
// countdown (stripe handlers complete per-stripe futures).
func wrapCountdown(clk *vclock.Clock, c *countdown) *vclock.Future {
	f := clk.NewFuture()
	clk.Go(func() { c.done(f.Wait()) })
	return f
}

// kickHandle starts a handler for stripe s unless one is running.
func (v *Volume) kickHandle(s int64) {
	v.mu.Lock()
	l, ok := v.lines[s]
	if !ok || l.handling || !anySet(l.dirty) {
		v.mu.Unlock()
		return
	}
	l.handling = true
	copy(l.inflight, l.dirty)
	for i := range l.dirty {
		l.dirty[i] = false
	}
	l.inflWait = l.waiters
	l.waiters = nil
	v.mu.Unlock()

	v.clk.Go(func() {
		err := v.handleStripe(s, l)
		v.mu.Lock()
		l.handling = false
		waiters := l.inflWait
		l.inflWait = nil
		for i := range l.inflight {
			l.inflight[i] = false
		}
		redo := anySet(l.dirty)
		v.cond.Broadcast()
		v.mu.Unlock()
		for _, w := range waiters {
			w.Complete(err)
		}
		if redo {
			v.kickHandle(s)
		}
	})
}

// handleStripe writes the in-flight dirty sectors of stripe s plus
// updated parity, choosing between a full-stripe write, a
// reconstruct-write (read the missing minority), or a read-modify-write.
func (v *Volume) handleStripe(s int64, l *stripeLine) error {
	ss := int64(v.sectorSize())
	stripeSec := v.stripeSectors()
	covered := 0
	for _, d := range l.inflight {
		if d {
			covered++
		}
	}
	full := covered == int(stripeSec)
	pdev := v.parityDev(s)

	var newParity []byte
	if full {
		// Full-stripe write: parity from cache, no reads.
		units := make([][]byte, v.d)
		for u := 0; u < v.d; u++ {
			units[u] = l.data[int64(u)*v.chunk*ss : int64(u+1)*v.chunk*ss]
		}
		newParity = parity.Encode(units...)
	} else if covered*2 >= int(stripeSec) || v.Degraded() >= 0 {
		// Reconstruct-write: read the non-dirty sectors, then compute
		// parity over the full stripe. (Also the degraded-write path:
		// old parity may be on the dead device.)
		if err := v.fillClean(s, l); err != nil {
			return err
		}
		units := make([][]byte, v.d)
		for u := 0; u < v.d; u++ {
			units[u] = l.data[int64(u)*v.chunk*ss : int64(u+1)*v.chunk*ss]
		}
		newParity = parity.Encode(units...)
	} else {
		// Read-modify-write: old data of the dirty sectors + old
		// parity.
		var err error
		newParity, err = v.rmwParity(s, l)
		if err != nil {
			return err
		}
	}

	// With a journal attached, the stripe's dirty data and new parity
	// are made durable in the log BEFORE any member device is written,
	// closing the RAID-5 write hole (§2.2).
	var release func()
	v.mu.Lock()
	j := v.journal
	v.mu.Unlock()
	if j != nil {
		var jerr error
		release, jerr = j.logStripe(v.clk, int64(v.sectorSize()), l, newParity)
		if jerr != nil {
			return jerr
		}
	}

	// Issue the device writes: dirty data runs + the parity chunk.
	var futs []*vclock.Future
	var devErr error
	for u := 0; u < v.d; u++ {
		dev := v.dataDev(s, u)
		d := v.devForStripe(dev, s)
		if d == nil {
			continue // degraded write omits the dead device
		}
		base := int64(u) * v.chunk
		for lo := int64(0); lo < v.chunk; {
			if !l.inflight[base+lo] {
				lo++
				continue
			}
			hi := lo
			for hi < v.chunk && l.inflight[base+hi] {
				hi++
			}
			futs = append(futs, d.Write(v.devPBA(s, lo), l.data[(base+lo)*ss:(base+hi)*ss], 0))
			lo = hi
		}
	}
	if d := v.devForStripe(pdev, s); d != nil && newParity != nil {
		futs = append(futs, d.Write(v.devPBA(s, 0), newParity, 0))
	}
	for _, f := range futs {
		if err := f.Wait(); err != nil && devErr == nil {
			if !errors.Is(err, blockdev.ErrDeviceFailed) {
				devErr = err
			}
		}
	}
	if release != nil {
		release() // stripe committed to the array: reclaim journal space
	}
	return devErr
}

// fillClean reads every non-inflight sector of the stripe into the cache
// line (reconstruct-write preparation). Degraded chunks are rebuilt from
// the survivors.
func (v *Volume) fillClean(s int64, l *stripeLine) error {
	ss := int64(v.sectorSize())
	var futs []*vclock.Future
	deadUnit := -1
	for u := 0; u < v.d; u++ {
		dev := v.dataDev(s, u)
		d := v.devForStripe(dev, s)
		base := int64(u) * v.chunk
		if d == nil {
			deadUnit = u
			continue
		}
		for lo := int64(0); lo < v.chunk; {
			if l.inflight[base+lo] {
				lo++
				continue
			}
			hi := lo
			for hi < v.chunk && !l.inflight[base+hi] {
				hi++
			}
			futs = append(futs, d.Read(v.devPBA(s, lo), l.data[(base+lo)*ss:(base+hi)*ss]))
			lo = hi
		}
	}
	if err := vclock.WaitAll(futs...); err != nil {
		return err
	}
	if deadUnit >= 0 {
		// Reconstruct the dead chunk's clean sectors from parity +
		// survivors; its dirty sectors already hold new data.
		pd := v.devForStripe(v.parityDev(s), s)
		if pd == nil {
			return ErrInconsistent
		}
		pbuf := make([]byte, v.chunk*ss)
		if err := pd.Read(v.devPBA(s, 0), pbuf).Wait(); err != nil {
			return err
		}
		base := int64(deadUnit) * v.chunk
		for i := int64(0); i < v.chunk; i++ {
			if l.inflight[base+i] {
				continue
			}
			dst := l.data[(base+i)*ss : (base+i+1)*ss]
			copy(dst, pbuf[i*ss:(i+1)*ss])
			for u := 0; u < v.d; u++ {
				if u == deadUnit {
					continue
				}
				src := l.data[(int64(u)*v.chunk+i)*ss : (int64(u)*v.chunk+i+1)*ss]
				parity.XORInto(dst, src)
			}
		}
	}
	return nil
}

// rmwParity computes the new parity chunk via read-modify-write: new
// parity = old parity XOR old dirty data XOR new dirty data.
func (v *Volume) rmwParity(s int64, l *stripeLine) ([]byte, error) {
	ss := int64(v.sectorSize())
	pd := v.devForStripe(v.parityDev(s), s)
	if pd == nil {
		return nil, nil // no parity to maintain
	}
	newP := make([]byte, v.chunk*ss)
	if err := pd.Read(v.devPBA(s, 0), newP).Wait(); err != nil {
		return nil, err
	}
	// XOR out old data, XOR in new data, per dirty sector.
	old := make([]byte, ss)
	for u := 0; u < v.d; u++ {
		dev := v.dataDev(s, u)
		d := v.devForStripe(dev, s)
		base := int64(u) * v.chunk
		for i := int64(0); i < v.chunk; i++ {
			if !l.inflight[base+i] {
				continue
			}
			if d != nil {
				if err := d.Read(v.devPBA(s, i), old).Wait(); err != nil {
					return nil, err
				}
				parity.XORInto(newP[i*ss:(i+1)*ss], old)
			}
			parity.XORInto(newP[i*ss:(i+1)*ss], l.data[(base+i)*ss:(base+i+1)*ss])
		}
	}
	return newP, nil
}

// SubmitRead fills buf from lba, serving dirty bytes from the stripe
// cache and reconstructing chunks of a failed device from parity.
func (v *Volume) SubmitRead(lba int64, buf []byte) *vclock.Future {
	ss := int64(v.sectorSize())
	if len(buf) == 0 || int64(len(buf))%ss != 0 {
		return v.clk.Completed(ErrUnaligned)
	}
	n := int64(len(buf)) / ss
	if lba < 0 || lba+n > v.NumSectors() {
		return v.clk.Completed(ErrOutOfRange)
	}

	type job struct {
		s     int64
		u     int
		intra int64
		cnt   int64
		dst   []byte
	}
	var jobs []job
	stripeSec := v.stripeSectors()
	pos, out := lba, buf
	v.mu.Lock()
	for len(out) > 0 {
		s := pos / stripeSec
		in := pos % stripeSec
		u := int(in / v.chunk)
		intra := in % v.chunk
		cnt := v.chunk - intra
		if avail := int64(len(out)) / ss; cnt > avail {
			cnt = avail
		}
		dst := out[:cnt*ss]
		// Serve dirty/in-flight sectors from the stripe cache and the
		// rest from the devices, splitting the piece into runs.
		l := v.lines[s]
		cached := func(i int64) bool {
			return l != nil && (l.dirty[i] || l.inflight[i])
		}
		for lo := int64(0); lo < cnt; {
			hit := cached(in + lo)
			hi := lo
			for hi < cnt && cached(in+hi) == hit {
				hi++
			}
			if hit {
				copy(dst[lo*ss:hi*ss], l.data[(in+lo)*ss:(in+hi)*ss])
			} else {
				jobs = append(jobs, job{s: s, u: u, intra: intra + lo, cnt: hi - lo, dst: dst[lo*ss : hi*ss]})
			}
			lo = hi
		}
		pos += cnt
		out = out[cnt*ss:]
	}
	v.mu.Unlock()

	var futs []*vclock.Future
	var recon []job
	for _, j := range jobs {
		dev := v.dataDev(j.s, j.u)
		d := v.devForStripe(dev, j.s)
		if d == nil {
			recon = append(recon, j)
			continue
		}
		futs = append(futs, d.Read(v.devPBA(j.s, j.intra), j.dst))
	}

	result := v.clk.NewFuture()
	v.clk.Go(func() {
		err := vclock.WaitAll(futs...)
		if err == nil {
			for _, j := range recon {
				if rerr := v.degradedReadChunk(j.s, j.u, j.intra, j.cnt, j.dst); rerr != nil {
					err = rerr
					break
				}
			}
		}
		result.Complete(err)
	})
	return result
}

// degradedReadChunk reconstructs [intra, intra+cnt) of data chunk u in
// stripe s from the surviving devices.
func (v *Volume) degradedReadChunk(s int64, u int, intra, cnt int64, dst []byte) error {
	ss := int64(v.sectorSize())
	var futs []*vclock.Future
	bufs := make([][]byte, 0, v.d)
	for u2 := 0; u2 < v.d; u2++ {
		if u2 == u {
			continue
		}
		d := v.devForStripe(v.dataDev(s, u2), s)
		if d == nil {
			return ErrInconsistent
		}
		b := make([]byte, cnt*ss)
		futs = append(futs, d.Read(v.devPBA(s, intra), b))
		bufs = append(bufs, b)
	}
	pd := v.devForStripe(v.parityDev(s), s)
	if pd == nil {
		return ErrInconsistent
	}
	pbuf := make([]byte, cnt*ss)
	futs = append(futs, pd.Read(v.devPBA(s, intra), pbuf))
	if err := vclock.WaitAll(futs...); err != nil {
		return err
	}
	copy(dst, pbuf)
	for _, b := range bufs {
		parity.XORInto(dst, b)
	}
	return nil
}

// SubmitFlush handles every dirty stripe, then flushes all devices.
func (v *Volume) SubmitFlush() *vclock.Future {
	v.mu.Lock()
	var dirty []int64
	for s, l := range v.lines {
		if anySet(l.dirty) {
			dirty = append(dirty, s)
		}
	}
	v.mu.Unlock()
	result := v.clk.NewFuture()
	v.clk.Go(func() {
		for _, s := range dirty {
			v.kickHandle(s)
		}
		// Wait for all handlers to drain.
		for {
			v.mu.Lock()
			busy := false
			for _, l := range v.lines {
				if l.handling || anySet(l.dirty) {
					busy = true
					break
				}
			}
			v.mu.Unlock()
			if !busy {
				break
			}
			v.clk.Sleep(50 * time.Microsecond)
		}
		var futs []*vclock.Future
		for i := range v.devs {
			if d := v.dev(i); d != nil {
				futs = append(futs, d.Flush())
			}
		}
		result.Complete(vclock.WaitAll(futs...))
	})
	return result
}

// Write, Read, Flush are blocking wrappers.
func (v *Volume) Write(lba int64, data []byte) error {
	return v.SubmitWrite(lba, data).Wait()
}

func (v *Volume) Read(lba int64, buf []byte) error {
	return v.SubmitRead(lba, buf).Wait()
}

func (v *Volume) Flush() error { return v.SubmitFlush().Wait() }

// ResyncStats summarizes a device replacement.
type ResyncStats struct {
	BytesWritten int64
	Elapsed      time.Duration
}

// Resync installs a replacement device and re-syncs it by scanning the
// ENTIRE address space — mdraid cannot tell valid data from free space,
// so TTR is constant regardless of utilization (§6.2, Figure 12).
func (v *Volume) Resync(newDev *blockdev.Device) (ResyncStats, error) {
	var stats ResyncStats
	start := v.clk.Now()

	v.mu.Lock()
	slot := v.degraded
	if slot < 0 {
		v.mu.Unlock()
		return stats, errors.New("mdraid: array is not degraded")
	}
	if v.resyncing {
		v.mu.Unlock()
		return stats, errors.New("mdraid: resync already in progress")
	}
	v.resyncing = true
	v.resyncedStripe = make([]bool, v.perDev)
	v.devs[slot] = newDev
	v.mu.Unlock()

	ss := int64(v.sectorSize())
	chunkBytes := v.chunk * ss
	nStripes := v.perDev
	buf := make([]byte, chunkBytes)
	bufs := make([][]byte, v.d)
	for i := range bufs {
		bufs[i] = make([]byte, chunkBytes)
	}
	for s := int64(0); s < nStripes; s++ {
		// Exclude concurrent stripe handlers while this stripe is
		// reconstructed (a handler mid-write would tear the snapshot).
		v.mu.Lock()
		l := v.lineLocked(s)
		for l.handling {
			v.cond.Wait()
		}
		l.handling = true
		v.mu.Unlock()

		// Read every surviving chunk of the stripe, reconstruct the
		// missing one, write it to the replacement.
		var futs []*vclock.Future
		k := 0
		for i := 0; i < v.n; i++ {
			if i == slot {
				continue
			}
			d := v.dev(i)
			if d == nil {
				return stats, ErrInconsistent
			}
			futs = append(futs, d.Read(v.devPBA(s, 0), bufs[k]))
			k++
		}
		if err := vclock.WaitAll(futs...); err != nil {
			return stats, err
		}
		for i := range buf {
			buf[i] = 0
		}
		for _, b := range bufs {
			parity.XORInto(buf, b)
		}
		err := newDev.Write(v.devPBA(s, 0), buf, 0).Wait()
		v.mu.Lock()
		l.handling = false
		v.resyncedStripe[s] = true
		redo := anySet(l.dirty)
		v.cond.Broadcast()
		v.mu.Unlock()
		if err != nil {
			return stats, err
		}
		if redo {
			v.kickHandle(s)
		}
		stats.BytesWritten += chunkBytes
	}

	v.mu.Lock()
	v.degraded = -1
	v.resyncing = false
	v.resyncedStripe = nil
	v.mu.Unlock()
	stats.Elapsed = v.clk.Now() - start
	return stats, nil
}
