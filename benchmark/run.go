package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"syscall"
	"time"

	"raizn/internal/ppengine"
	"raizn/internal/raizn"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

var errMismatch = errors.New("benchmark: read returned the wrong bytes")

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are one run's arguments.
type options struct {
	w      *workload
	seed   int64
	scale  float64
	traced bool
	setups int       // set-ups to time; the last one is the one measured on
	out    io.Writer // where the lines before the result go
}

// epochStats is what one timed epoch measured.
type epochStats struct {
	traced    bool // raizn's tracer and the benchmark's spans were on
	ops       int64
	failed    int64
	bytes     int64 // user bytes of completed ops
	wallNs    int64
	cpuNs     int64
	simNs     int64
	mallocs   uint64
	allocated uint64
	gcCycles  uint32
	layer     *layerEpoch // traced runs only
}

// run holds one run's state.
type run struct {
	opt    options
	clk    *vclock.Clock
	stream *stream
	s      *stack
	lat    [][][]int64 // [epoch][client][op] simulated ns, -1 = failed
	late   [][]int64   // open loop: [client] generator lateness samples, ns
	epochs []epochStats
	lt     *layerTrace // traced runs only

	readBufs [][]byte // closed loop: one read buffer per client
	bufMu    sync.Mutex
	bufFree  [][]byte // open loop: free read buffers
}

func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// execute performs one whole run on a fresh virtual clock.
func execute(opt options) (res result, err error) {
	r := &run{opt: opt, clk: vclock.New()}
	r.stream = generate(opt.w, opt.seed, opt.scale, 1+timedEpochs)
	r.lat = make([][][]int64, len(r.stream.ops))
	for e := range r.lat {
		r.lat[e] = make([][]int64, opt.w.clients)
		for c := range r.lat[e] {
			r.lat[e][c] = make([]int64, len(r.stream.ops[e][c]))
		}
	}
	r.late = make([][]int64, opt.w.clients)
	for c := 0; c < opt.w.clients; c++ {
		r.readBufs = append(r.readBufs, make([]byte, stripeSectors*sectorBytes))
	}
	if opt.traced {
		r.lt = newLayerTrace(r.clk)
	}
	r.clk.Run(func() { res, err = r.body() })
	return res, err
}

func (r *run) body() (res result, err error) {
	// The volume manager's dispatchers live until closed; a run that ends
	// with one still parked would trip the clock's deadlock detector and
	// hide the error that ended it.
	defer func() {
		if r.s != nil && r.s.mgr != nil {
			if cerr := r.s.mgr.Close(); err == nil {
				err = cerr
			}
		}
	}()
	var setups []float64
	for i := 0; i < r.opt.setups; i++ {
		// Drop the previous set-up's stack before timing the next one.
		if r.s != nil {
			if err := r.s.mgr.Close(); err != nil {
				return result{}, err
			}
			r.s = nil
		}
		runtime.GC()
		t0 := time.Now()
		if err := r.setup(); err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	if r.lt != nil {
		if err := r.span("raizn.direct_replay", func() error { r.directReplay(); return r.turnOver() }); err != nil {
			return result{}, err
		}
		if err := pprof.StartCPUProfile(&r.lt.profile); err != nil {
			return result{}, err
		}
	}
	for e := 1; e <= timedEpochs; e++ {
		// Traced runs alternate: odd epochs plain, even epochs traced.
		st := r.epoch(e, r.lt != nil && e%2 == 0)
		r.epochs = append(r.epochs, st)
		if e < timedEpochs {
			if err := r.turnOver(); err != nil {
				return result{}, err
			}
		}
	}
	if r.lt != nil {
		pprof.StopCPUProfile()
	}

	res = result{Correct: true, Metrics: map[string]metric{}}
	for _, st := range r.epochs {
		res.Attempted += st.ops
		res.Failed += st.failed
	}
	if err := r.span("volmgr.flush", func() error { return r.s.vol.Flush() }); err != nil {
		return result{}, fmt.Errorf("flush: %w", err)
	}
	end := r.snapshot()

	va, vf, err := r.verify()
	if err != nil {
		return result{}, err
	}
	res.Attempted += va
	res.Failed += vf
	res.Correct = vf == 0

	if r.lt == nil {
		r.endToEnd(&res, setups, end)
	} else if err := r.perLayer(&res, end); err != nil {
		return result{}, err
	}
	return res, nil
}

// span runs fn inside a benchmark-side span when the run is traced.
func (r *run) span(name string, fn func() error) error {
	if r.lt == nil {
		return fn()
	}
	return r.lt.spans.do(name, fn)
}

// setup builds the stack up to the start of the first timed epoch: arrays,
// manager, prefill, failed devices, and one warm-up epoch (pools filled,
// zone buffers and stripe buffers faulted in) whose zones are then reset.
func (r *run) setup() error {
	w := r.opt.w
	arrays, err := newArrays(r.clk, w, r.opt.traced)
	if err != nil {
		return err
	}
	r.s = &stack{
		w: w, clk: r.clk, scale: r.opt.scale,
		zones: w.volumeZones(r.opt.scale, r.stream), pool: newPayloadPool(r.opt.seed),
		arrays: arrays,
	}
	if err := r.span("volmgr.build", r.s.newManager); err != nil {
		return err
	}
	if err := r.s.prefillVolume(r.s.vol); err != nil {
		return err
	}
	if w.failDevice {
		if err := r.s.failDevices(); err != nil {
			return err
		}
	}
	if st := r.epoch(0, false); st.failed > 0 {
		return fmt.Errorf("warm-up epoch: %d of %d ops failed", st.failed, st.ops)
	}
	return r.turnOver()
}

// turnOver is the untimed work between epochs: drain and close the
// manager, reset the zones the epoch wrote, build a fresh manager.
func (r *run) turnOver() error {
	if err := r.span("volmgr.close", r.s.mgr.Close); err != nil {
		return err
	}
	if err := r.span("raizn.reset_zones", r.s.resetWriteZones); err != nil {
		return err
	}
	return r.span("volmgr.build", r.s.newManager)
}

// epoch runs one epoch's fixed op list and measures it.
func (r *run) epoch(e int, traced bool) epochStats {
	st := epochStats{traced: traced}
	var logs []*clientSpans
	if traced {
		for _, ops := range r.stream.ops[e] {
			logs = append(logs, r.lt.spans.client(len(ops), "volmgr.submit"))
		}
	}
	if r.lt != nil && e > 0 { // the warm-up epoch feeds no metric
		st.layer = r.lt.beginEpoch(r, traced)
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, wall0, sim0 := cpuNow(), time.Now(), r.clk.Now()

	r.drive(r.s.vol, r.stream.ops[e], r.lat[e], logs)
	st.wallNs = int64(time.Since(wall0))
	st.cpuNs = cpuNow() - cpu0
	st.simNs = int64(r.clk.Now() - sim0)
	runtime.ReadMemStats(&ms1)
	st.mallocs = ms1.Mallocs - ms0.Mallocs
	st.allocated = ms1.TotalAlloc - ms0.TotalAlloc
	st.gcCycles = ms1.NumGC - ms0.NumGC
	st.ops, st.failed, st.bytes = r.tally(r.stream.ops[e], r.lat[e])
	if st.layer != nil {
		r.lt.endEpoch(r, st.layer, traced)
	}
	return st
}

// tally counts what drive did with ops: ops sent, ops failed, user bytes of
// the completed ones. Completed writes are added to the stack's user bytes,
// the denominator of the write-amplification metrics.
func (r *run) tally(ops [][]op, lat [][]int64) (n, failed, bytes int64) {
	for c, list := range ops {
		for i := range list {
			n++
			if lat[c][i] < 0 {
				failed++
				continue
			}
			b := int64(list[i].sectors) * sectorBytes
			bytes += b
			if list[i].write {
				r.s.userWritten += b
			}
		}
	}
	return n, failed, bytes
}

func flagsOf(o *op) zns.Flag {
	if o.fua {
		return zns.FUA
	}
	return 0
}

// drive runs one op list per client against target and returns when every
// op has completed. logs is nil unless the benchmark's spans are on.
func (r *run) drive(target ioTarget, ops [][]op, lat [][]int64, logs []*clientSpans) {
	start := r.clk.Now()
	clients := r.clk.NewWaitGroup()
	inflight := r.clk.NewWaitGroup() // open loop: ops submitted, not completed
	for c := range ops {
		c := c
		var log *clientSpans
		if logs != nil {
			log = logs[c]
		}
		clients.Add(1)
		r.clk.Go(func() {
			defer clients.Done()
			if r.opt.w.open {
				r.openClient(target, c, ops[c], lat[c], start, inflight, log)
			} else {
				r.closedClient(target, c, ops[c], lat[c], log)
			}
		})
	}
	clients.Wait()
	inflight.Wait()
}

// closedClient sends its next op only when the previous one completed.
func (r *run) closedClient(target ioTarget, c int, ops []op, lat []int64, log *clientSpans) {
	tenant, buf, pool := tenantID(c), r.readBufs[c], r.s.pool
	for i := range ops {
		o := &ops[i]
		var (
			fut    *vclock.Future
			err    error
			h0, h1 time.Time
		)
		t0 := r.clk.Now()
		if log != nil {
			h0 = time.Now()
		}
		if o.write {
			fut, err = target.SubmitWrite(tenant, o.lba, payload(pool, o.lba, o.sectors), flagsOf(o))
		} else {
			fut, err = target.SubmitRead(tenant, o.lba, buf[:int(o.sectors)*sectorBytes])
		}
		if log != nil {
			h1 = time.Now()
		}
		if err == nil {
			err = fut.Wait()
		}
		t1 := r.clk.Now()
		if log != nil {
			log.end(log.begin(h0, h1, t0), time.Now(), t1)
		}
		// Reads are spot-checked in flight; everything is checked again
		// after the timed epochs.
		if err == nil && !o.write && i%64 == 0 &&
			!bytes.Equal(buf[:int(o.sectors)*sectorBytes], payload(pool, o.lba, o.sectors)) {
			err = errMismatch
		}
		if err != nil {
			lat[i] = -1
			continue
		}
		lat[i] = int64(t1 - t0)
	}
}

// openClient sends each op at its due time whatever happened to the ones
// before it; latency counts from the due time. A write that is refused is
// a failed op and its address is offered again by the tenant's next write
// arrival, because a hole would break the zone's write pointer.
func (r *run) openClient(target ioTarget, c int, ops []op, lat []int64, start time.Duration, inflight *vclock.WaitGroup, log *clientSpans) {
	tenant, pool := tenantID(c), r.s.pool
	var writes []int // indices of this tenant's write ops, in address order
	for i := range ops {
		if ops[i].write {
			writes = append(writes, i)
		}
	}
	wnext := 0
	for i := range ops {
		i := i
		due := start + ops[i].due
		if d := due - r.clk.Now(); d > 0 {
			r.clk.Sleep(d)
		}
		t0 := r.clk.Now()
		r.late[c] = append(r.late[c], int64(t0-due))
		o := &ops[i]
		if o.write {
			o = &ops[writes[wnext]]
		}
		var (
			fut    *vclock.Future
			err    error
			buf    []byte
			h0, h1 time.Time
		)
		if log != nil {
			h0 = time.Now()
		}
		if o.write {
			fut, err = target.SubmitWrite(tenant, o.lba, payload(pool, o.lba, o.sectors), flagsOf(o))
		} else {
			buf = r.getBuf()
			fut, err = target.SubmitRead(tenant, o.lba, buf[:int(o.sectors)*sectorBytes])
		}
		if log != nil {
			h1 = time.Now()
		}
		if err != nil {
			lat[i] = -1
			continue
		}
		if o.write {
			wnext++
		}
		sp := -1
		if log != nil {
			sp = log.begin(h0, h1, t0)
		}
		inflight.Add(1)
		fut.Subscribe(func(err error) {
			t1 := r.clk.Now()
			if sp >= 0 {
				log.end(sp, time.Now(), t1)
			}
			if err == nil && buf != nil && i%64 == 0 &&
				!bytes.Equal(buf[:int(o.sectors)*sectorBytes], payload(pool, o.lba, o.sectors)) {
				err = errMismatch
			}
			if buf != nil {
				r.putBuf(buf)
			}
			if err != nil {
				lat[i] = -1
			} else {
				lat[i] = int64(t1 - due)
			}
			inflight.Done()
		})
	}
}

func (r *run) getBuf() []byte {
	r.bufMu.Lock()
	defer r.bufMu.Unlock()
	if n := len(r.bufFree); n > 0 {
		b := r.bufFree[n-1]
		r.bufFree = r.bufFree[:n-1]
		return b
	}
	return make([]byte, stripeSectors*sectorBytes)
}

func (r *run) putBuf(b []byte) {
	r.bufMu.Lock()
	r.bufFree = append(r.bufFree, b)
	r.bufMu.Unlock()
}

// endSnapshot is every lifetime counter of the arrays, read when timing
// ends: the verification that follows mounts the arrays again, which starts
// raizn's counters afresh, and adds IO of its own.
type endSnapshot struct {
	user                            int64 // bytes of completed writes
	hostWritten, flash              int64 // all devices
	writeCmds, resets               int64
	data, parity, pp, metadata, reb int64 // raizn's layered split of hostWritten
	mdGCs, relocations              int64
	engine                          ppengine.Stats
}

func (r *run) snapshot() endSnapshot {
	e := endSnapshot{user: r.s.userWritten}
	for _, a := range r.s.arrays {
		for _, d := range a.allDevices() {
			hw, _, _, resets := d.Counters()
			e.hostWritten += hw
			e.resets += resets
			e.writeCmds += d.WriteCommands()
			e.flash += d.FlashProgramBytes()
		}
		for _, cat := range a.vol.WAReport().Categories {
			switch cat.Name {
			case "data":
				e.data += cat.Bytes
			case "parity":
				e.parity += cat.Bytes
			case "pp-header", "pp-payload":
				e.pp += cat.Bytes
			case "metadata":
				e.metadata += cat.Bytes
			case "rebuild":
				e.reb += cat.Bytes
			}
		}
		st := a.vol.Stats()
		e.mdGCs += st.MetadataGCs
		e.relocations += st.Relocations
		ps := a.vol.PPEngineStats()
		e.engine.VolatileBytes += ps.VolatileBytes
		e.engine.PermanentBytes += ps.PermanentBytes
		e.engine.FallbackTotal += ps.FallbackTotal
		e.engine.GCRuns += ps.GCRuns
		e.engine.GCMigrated += ps.GCMigrated
	}
	return e
}

// verify checks the program's outputs: a sample of the last epoch read
// back, the degraded array rebuilt and re-read in full, and the sample read
// back once more after every array was unmounted and mounted again.
func (r *run) verify() (attempted, failed int64, err error) {
	last := r.stream.ops[timedEpochs]
	a, f := r.s.verifyOps(last)
	attempted, failed = attempted+a, failed+f

	if r.opt.w.failDevice {
		var st raizn.RebuildStats
		h0 := time.Now()
		err := r.span("raizn.rebuild", func() (err error) {
			st, err = r.s.rebuild()
			return err
		})
		if err != nil {
			return 0, 0, fmt.Errorf("rebuild: %w", err)
		}
		if r.lt != nil {
			r.lt.rebuild, r.lt.rebuildHost = st, time.Since(h0)
		}
		a, f = r.s.verifyPrefill()
		attempted, failed = attempted+a, failed+f
	}

	h0, s0 := time.Now(), r.clk.Now()
	if err := r.span("raizn.remount", r.s.remount); err != nil {
		return 0, 0, err
	}
	if r.lt != nil {
		r.lt.mountHost, r.lt.mountSim = time.Since(h0), r.clk.Now()-s0
	}
	a, f = r.s.verifyOps(last)
	return attempted + a, failed + f, nil
}

// sortedLatencies merges the timed epochs' completed ops, optionally only
// reads or only writes.
func (r *run) sortedLatencies(keep func(o *op) bool) []int64 {
	var all []int64
	for e := 1; e <= timedEpochs; e++ {
		for c, ops := range r.stream.ops[e] {
			for i := range ops {
				if l := r.lat[e][c][i]; l >= 0 && (keep == nil || keep(&ops[i])) {
					all = append(all, l)
				}
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

// perOp returns the per-epoch values of f divided by the epoch's ops, over
// the epochs keep selects.
func (r *run) perOp(f func(st *epochStats) float64, keep func(st *epochStats) bool) []float64 {
	var out []float64
	for i := range r.epochs {
		st := &r.epochs[i]
		if keep == nil || keep(st) {
			out = append(out, f(st)/float64(st.ops))
		}
	}
	return out
}

// endToEnd fills in the ten end-to-end metrics.
func (r *run) endToEnd(res *result, setups []float64, end endSnapshot) {
	var bytes, simNs int64
	for _, st := range r.epochs {
		bytes += st.bytes
		simNs += st.simNs
	}
	lat := r.sortedLatencies(nil)
	fmt.Fprintf(r.opt.out, "# %s seed %d scale %.3g: %d ops attempted, %d timed ops completed, tail percentile p%.4g, stream hash %016x\n",
		r.opt.w.name, r.opt.seed, r.opt.scale, res.Attempted, len(lat), tailPercent(len(lat)), r.stream.hash)

	fmt.Fprintf(r.opt.out, "# host ns/op by epoch: %.0f\n", r.perOp(func(st *epochStats) float64 { return float64(st.wallNs) }, nil))
	perOp := func(f func(st *epochStats) float64) float64 { return median(r.perOp(f, nil)) }
	values := map[string]float64{
		"setup_s":            median(setups),
		"sim_mib_s":          float64(bytes) / (1 << 20) / (float64(simNs) / 1e9),
		"sim_p50_us":         float64(percentile(lat, 50)) / 1e3,
		"sim_p99_us":         tailUs(lat),
		"host_ns_per_op":     perOp(func(st *epochStats) float64 { return float64(st.wallNs) }),
		"host_cpu_ns_per_op": perOp(func(st *epochStats) float64 { return float64(st.cpuNs) }),
		"host_allocs_per_op": perOp(func(st *epochStats) float64 { return float64(st.mallocs) }),
		"host_bytes_per_op":  perOp(func(st *epochStats) float64 { return float64(st.allocated) }),
		"flash_waf":          float64(end.flash) / float64(end.user),
		"dev_waf":            float64(end.hostWritten) / float64(end.user),
	}
	for _, d := range endToEndDefs {
		res.Metrics[d.name] = metric{values[d.name], d.unit}
	}
}
