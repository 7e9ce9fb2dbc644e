package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"raizn/internal/obs"
	"raizn/internal/parity"
	"raizn/internal/raizn"
	"raizn/internal/ring"
	"raizn/internal/vclock"
	"raizn/internal/volmgr"
	"raizn/internal/zns"
)

// --- benchmark-side spans -------------------------------------------------

// span is one interval around a call the benchmark makes into a layer, on
// both clocks: host ns since the run started, simulated ns since the
// clock's zero. Spans of one client request share Req.
type span struct {
	Name      string `json:"name"`
	ID        int64  `json:"id"`
	Parent    int64  `json:"parent,omitempty"`
	Req       int64  `json:"req,omitempty"`
	HostStart int64  `json:"host_start_ns"`
	HostEnd   int64  `json:"host_end_ns"`
	SimStart  int64  `json:"sim_start_ns"`
	SimEnd    int64  `json:"sim_end_ns"`
}

// maxTraceSpans caps the trace file; every span stays in memory for the
// metrics, the file keeps the calls outside requests and the first
// requests of each client.
const maxTraceSpans = 60000

type spanLog struct {
	clk    *vclock.Clock
	t0     time.Time
	nextID atomic.Int64

	mu      sync.Mutex
	calls   []span         // calls outside client requests
	clients []*clientSpans // one per (traced epoch or replay, client)
}

// do records a span around fn.
func (l *spanLog) do(name string, fn func() error) error {
	sp := span{Name: name, ID: l.nextID.Add(1), HostStart: int64(time.Since(l.t0)), SimStart: int64(l.clk.Now())}
	err := fn()
	sp.HostEnd, sp.SimEnd = int64(time.Since(l.t0)), int64(l.clk.Now())
	l.mu.Lock()
	l.calls = append(l.calls, sp)
	l.mu.Unlock()
	return err
}

// clientSpans holds one client's request spans for one epoch: per request
// an "op" span with a submit-call child and a completion-wait child. It is
// sized up front so that spans never move while completions fill them in.
type clientSpans struct {
	l      *spanLog
	submit string // name of the submit-call span: the layer being called
	spans  []span
}

func (l *spanLog) client(ops int, submit string) *clientSpans {
	c := &clientSpans{l: l, submit: submit, spans: make([]span, 0, 3*ops)}
	l.mu.Lock()
	l.clients = append(l.clients, c)
	l.mu.Unlock()
	return c
}

// begin records a request whose submit call ran from h0 to h1 at simulated
// time t0, and returns its index for end.
func (c *clientSpans) begin(h0, h1 time.Time, t0 time.Duration) int {
	id := c.l.nextID.Add(3) - 2
	hs, he, sim := int64(h0.Sub(c.l.t0)), int64(h1.Sub(c.l.t0)), int64(t0)
	c.spans = append(c.spans,
		span{Name: "op", ID: id, Req: id, HostStart: hs, SimStart: sim},
		span{Name: c.submit, ID: id + 1, Parent: id, Req: id, HostStart: hs, HostEnd: he, SimStart: sim, SimEnd: sim},
		span{Name: "wait", ID: id + 2, Parent: id, Req: id, HostStart: he, SimStart: sim},
	)
	return len(c.spans) - 3
}

// end closes the request begin returned i for. It may run on another
// goroutine than begin: it only writes spans begin already appended.
func (c *clientSpans) end(i int, h2 time.Time, t1 time.Duration) {
	host, sim := int64(h2.Sub(c.l.t0)), int64(t1)
	c.spans[i].HostEnd, c.spans[i].SimEnd = host, sim
	c.spans[i+2].HostEnd, c.spans[i+2].SimEnd = host, sim
}

// submitNs returns the host duration of every submit call named name.
func (l *spanLog) submitNs(name string) []float64 {
	var out []float64
	for _, c := range l.clients {
		if c.submit != name {
			continue
		}
		for i := 1; i < len(c.spans); i += 3 {
			out = append(out, float64(c.spans[i].HostEnd-c.spans[i].HostStart))
		}
	}
	return out
}

func (l *spanLog) writeFile(path string, w *workload, seed int64) error {
	spans := append([]span(nil), l.calls...)
	total := len(l.calls)
	per := 0
	if len(l.clients) > 0 {
		per = (maxTraceSpans - len(spans)) / len(l.clients) / 3 * 3
	}
	for _, c := range l.clients {
		total += len(c.spans)
		n := len(c.spans)
		if n > per {
			n = per
		}
		if n > 0 {
			spans = append(spans, c.spans[:n]...)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(struct {
		Workload   string `json:"workload"`
		Seed       int64  `json:"seed"`
		SpansTotal int    `json:"spans_recorded"`
		Spans      []span `json:"spans"`
	}{w.name, seed, total, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// --- counters read at epoch boundaries -------------------------------------

type devCounters struct{ hostWrite, hostRead, flushes, writeCmds int64 }

func (d *devCounters) add(x devCounters, sign int64) {
	d.hostWrite += sign * x.hostWrite
	d.hostRead += sign * x.hostRead
	d.flushes += sign * x.flushes
	d.writeCmds += sign * x.writeCmds
}

// counters is everything cumulative the per-op layer metrics are
// differences of: device counters by device, raizn.Stats over all arrays.
type counters struct {
	dev                                   map[*zns.Device]devCounters
	coalescedSub, fullParity, ppLogs, deg int64
}

func (s *stack) readCounters() counters {
	c := counters{dev: map[*zns.Device]devCounters{}}
	for _, a := range s.arrays {
		for _, d := range a.allDevices() {
			hw, hr, fl, _ := d.Counters()
			c.dev[d] = devCounters{hw, hr, fl, d.WriteCommands()}
		}
		st := a.vol.Stats()
		c.coalescedSub += st.CoalescedSubWrites
		c.fullParity += st.FullParityWrites
		c.ppLogs += st.PartialParityLogs
		c.deg += st.DegradedReads
	}
	return c
}

// add accumulates sign x b into c.
func (c *counters) add(b counters, sign int64) {
	c.coalescedSub += sign * b.coalescedSub
	c.fullParity += sign * b.fullParity
	c.ppLogs += sign * b.ppLogs
	c.deg += sign * b.deg
	if c.dev == nil {
		c.dev = map[*zns.Device]devCounters{}
	}
	for d, x := range b.dev {
		sum := c.dev[d]
		sum.add(x, sign)
		c.dev[d] = sum
	}
}

func (c counters) total() (t devCounters) {
	for _, x := range c.dev {
		t.add(x, 1)
	}
	return t
}

// spanCounter counts what raizn's tracer reports while it is on: every
// span, and device read commands per device (the devices keep no read
// command counter of their own).
type spanCounter struct {
	mu       sync.Mutex
	spans    int64
	devReads [devsPerArray]int64
}

func (s *spanCounter) ObserveSpan(root *obs.Span) {
	var spans int64
	var reads [devsPerArray]int64
	var walk func(sp *obs.Span)
	walk = func(sp *obs.Span) {
		spans++
		if sp.Op == obs.OpDevRead && sp.Dev >= 0 && sp.Dev < devsPerArray {
			reads[sp.Dev]++
		}
		for _, c := range sp.Children() {
			walk(c)
		}
	}
	walk(root)
	s.mu.Lock()
	s.spans += spans
	for i, n := range reads {
		s.devReads[i] += n
	}
	s.mu.Unlock()
}

// layerEpoch is what a traced run records around one timed epoch.
type layerEpoch struct {
	delta                          counters // end minus begin
	tenants                        []volmgr.TenantStats
	dispatched, batches, coalesced int64
}

// layerTrace is the state of a traced run.
type layerTrace struct {
	spans     *spanLog
	profile   bytes.Buffer
	observers []*spanCounter                 // one per array
	finishes  int64                          // zone-finish commands seen in traced epochs
	readBytes [numArrays][devsPerArray]int64 // read in traced epochs, by slot
	breakdown *obs.Breakdown                 // raizn's own phase split, last traced epoch

	directHost float64 // direct replay: host ns per op
	directLat  []int64 // direct replay: sorted simulated latencies

	rebuild                          raizn.RebuildStats
	rebuildHost, mountHost, mountSim time.Duration
}

func newLayerTrace(clk *vclock.Clock) *layerTrace {
	lt := &layerTrace{spans: &spanLog{clk: clk, t0: time.Now()}}
	for i := 0; i < numArrays; i++ {
		lt.observers = append(lt.observers, &spanCounter{})
	}
	return lt
}

func (lt *layerTrace) beginEpoch(r *run, traced bool) *layerEpoch {
	le := &layerEpoch{}
	le.delta.add(r.s.readCounters(), -1)
	if traced {
		for i, a := range r.s.arrays {
			a.tracer.SetObserver(lt.observers[i])
			a.tracer.Enable()
			a.journal.Enable()
		}
	}
	return le
}

func (lt *layerTrace) endEpoch(r *run, le *layerEpoch, traced bool) {
	le.delta.add(r.s.readCounters(), 1)
	le.tenants = r.s.vol.TenantStats()
	reg := r.s.mgr.Metrics()
	counter := func(name string) int64 { return reg.Counter(obs.LabeledName(name, "volume", r.s.vol.Name())).Load() }
	le.dispatched = counter("volmgr_dispatched_total")
	le.batches = counter("volmgr_batches_total")
	le.coalesced = counter("volmgr_coalesced_requests_total")
	if !traced {
		return
	}
	var roots []*obs.Span
	for i, a := range r.s.arrays {
		a.tracer.Disable()
		a.journal.Disable()
		for slot, d := range a.devs {
			lt.readBytes[i][slot] += le.delta.dev[d].hostRead // zero for a failed slot
		}
		for _, ev := range a.journal.Events() {
			if ev.Type == obs.EvZoneFinish && ev.Src >= 0 {
				lt.finishes++
			}
		}
		a.journal.Reset()
		roots = append(roots, a.tracer.Snapshot()...)
		a.tracer.Reset()
	}
	lt.breakdown = obs.Analyze(roots)
}

// --- direct replay: the same ops straight into raizn -------------------------

// directTarget sends volume addresses to the arrays through the volume's
// own extent map, with no volume manager in between.
type directTarget struct {
	extents []*raizn.Volume // array of each volume zone
	base    []int64         // first array LBA of each volume zone
}

func newDirectTarget(arrays []*array, extents []volmgr.ExtentDesc) *directTarget {
	byID := arraysByID(arrays)
	d := &directTarget{}
	for _, e := range extents {
		d.extents = append(d.extents, byID[e.Array].vol)
		d.base = append(d.base, int64(e.Zone)*zoneSectors)
	}
	return d
}

func (d *directTarget) locate(lba int64) (*raizn.Volume, int64) {
	z := lba / zoneSectors
	return d.extents[z], d.base[z] + lba%zoneSectors
}

func (d *directTarget) SubmitWrite(_ string, lba int64, data []byte, flags zns.Flag) (*vclock.Future, error) {
	v, at := d.locate(lba)
	return v.SubmitWrite(at, data, flags), nil
}

func (d *directTarget) SubmitRead(_ string, lba int64, buf []byte) (*vclock.Future, error) {
	v, at := d.locate(lba)
	return v.SubmitRead(at, buf), nil
}

// directReplay replays the first ops of the first timed epoch straight
// into raizn, on the run's own arrays in the state every epoch starts from
// (set-up done, write zones empty): the same work minus the volume manager.
func (r *run) directReplay() {
	lt := r.lt
	target := newDirectTarget(r.s.arrays, r.s.vol.ExtentMap())
	per := directOps / r.opt.w.clients
	ops := make([][]op, r.opt.w.clients)
	lats := make([][]int64, len(ops))
	logs := make([]*clientSpans, len(ops))
	var n int
	for c, list := range r.stream.ops[1] {
		if len(list) > per {
			list = list[:per]
		}
		ops[c], lats[c] = list, make([]int64, len(list))
		logs[c] = lt.spans.client(len(list), "raizn.submit")
		n += len(list)
	}
	runtime.GC()
	h0 := time.Now()
	r.drive(target, ops, lats, logs)
	lt.directHost = float64(time.Since(h0)) / float64(n)
	r.tally(ops, lats)
	for _, l := range lats {
		for _, v := range l {
			if v >= 0 {
				lt.directLat = append(lt.directLat, v)
			}
		}
	}
	sort.Slice(lt.directLat, func(i, j int) bool { return lt.directLat[i] < lt.directLat[j] })
}

// --- layer probes: one public entry point each, timed on the host ------------

// probeFor runs fn(n) with growing n until it takes at least 30 ms and
// returns host ns per iteration of the last round.
func probeFor(fn func(n int)) float64 {
	for n := 16; ; n *= 4 {
		h0 := time.Now()
		fn(n)
		if d := time.Since(h0); d >= 30*time.Millisecond || n >= 1<<22 {
			return float64(d) / float64(n)
		}
	}
}

const unitBytes = 16 * sectorBytes // one 64 KiB stripe unit

// probeParity returns GiB/s of source bytes through the fused XOR+CRC
// kernel and through Reconstruct, over one stripe's four units.
func probeParity(pool []byte) (encode, reconstruct float64) {
	units := make([][]byte, devsPerArray-1)
	for i := range units {
		units[i] = pool[i*unitBytes : (i+1)*unitBytes]
	}
	dst := make([]byte, unitBytes)
	crcs := make([]uint32, len(units)+1)
	tab := crc32.MakeTable(crc32.Castagnoli)
	gib := float64(len(units)*unitBytes) / (1 << 30)
	ns := probeFor(func(n int) {
		for i := 0; i < n; i++ {
			for j := range crcs {
				crcs[j] = 0
			}
			parity.XORCRCInto(dst, units, crcs, tab)
		}
	})
	encode = gib / (ns / 1e9)
	var sink []byte
	ns = probeFor(func(n int) {
		for i := 0; i < n; i++ {
			sink = parity.Reconstruct(units...)
		}
	})
	_ = sink
	return encode, gib / (ns / 1e9)
}

// probeDevices makes a fresh set of default devices for a probe.
func probeDevices(clk *vclock.Clock, n int) []*zns.Device {
	devs := make([]*zns.Device, n)
	for i := range devs {
		devs[i] = zns.NewDevice(clk, zns.DefaultConfig())
	}
	return devs
}

// probeZones is how many zones of each device a device probe writes.
const probeZones = 2

// warmPasses runs pass four times and returns, for each duration pass
// reports, the median over the last three. Every pass writes zones
// [0, probeZones) of devs from empty; between passes they are reset, so a
// counted pass allocates its zone buffers from memory the first pass
// already faulted in, as a timed epoch does.
func warmPasses(devs []*zns.Device, pass func() []time.Duration) []float64 {
	var times [][]float64
	for i := 0; i < 4; i++ {
		runtime.GC()
		for j, d := range pass() {
			if i == 0 {
				times = append(times, nil)
				continue
			}
			times[j] = append(times[j], float64(d))
		}
		for _, d := range devs {
			for z := 0; z < probeZones; z++ {
				_ = d.ResetZone(z).Wait() // a failure shows in the next pass's writes
			}
		}
	}
	out := make([]float64, len(times))
	for j := range times {
		out[j] = median(times[j])
	}
	return out
}

// probeRing returns host ns per command of pushing one 64 KiB write per
// device through a ring batch: Push, Flush, Submit, completions reaped.
func probeRing(clk *vclock.Clock, pool []byte) float64 {
	devs := probeDevices(clk, devsPerArray)
	set := ring.NewSet(clk, obs.NewRegistry(), "", len(devs))
	cfg := devs[0].Config()
	perZone := int(cfg.ZoneCap / 16)
	rounds := probeZones * perZone
	futs := make([]*vclock.Future, 0, len(devs))
	ns := warmPasses(devs, func() []time.Duration {
		h0 := time.Now()
		for i := 0; i < rounds; i++ {
			at := int64(i/perZone)*cfg.ZoneSize + int64(i%perZone)*16
			b := set.Batch()
			futs = futs[:0]
			for slot, d := range devs {
				b.Push(zns.Cmd{Op: zns.CmdWrite, Sector: at, Data: pool[:unitBytes]})
				for _, cmd := range b.Flush(d, slot) {
					futs = append(futs, cmd.Fut)
				}
			}
			b.Submit()
			_ = vclock.WaitAll(futs...) // a failed write would show as an absurd number
		}
		return []time.Duration{time.Since(h0)}
	})
	return ns[0] / float64(rounds*len(devs))
}

// probeZNS returns host ns per bare device command: vectored writes of
// writeSectors and reads of readSectors, each completion waited for.
func probeZNS(clk *vclock.Clock, pool []byte, writeSectors, readSectors int64) (write, read float64) {
	devs := probeDevices(clk, 1)
	dev, cfg := devs[0], devs[0].Config()
	clamp := func(n int64) int64 { return max(1, min(n, stripeSectors)) }
	writeSectors, readSectors = clamp(writeSectors), clamp(readSectors)
	writesPerZone, readsPerZone := cfg.ZoneCap/writeSectors, cfg.ZoneCap/readSectors
	writes, reads := probeZones*writesPerZone, probeZones*readsPerZone
	segs := [][]byte{pool[:writeSectors*sectorBytes]}
	buf := make([]byte, readSectors*sectorBytes)
	ns := warmPasses(devs, func() []time.Duration {
		h0 := time.Now()
		for i := int64(0); i < writes; i++ {
			_ = dev.Writev(i/writesPerZone*cfg.ZoneSize+i%writesPerZone*writeSectors, segs, 0).Wait()
		}
		h1 := time.Now()
		for i := int64(0); i < reads; i++ {
			_ = dev.Read(i/readsPerZone*cfg.ZoneSize+i%readsPerZone*readSectors, buf).Wait()
		}
		return []time.Duration{h1.Sub(h0), time.Since(h1)}
	})
	return ns[0] / float64(writes), ns[1] / float64(reads)
}

// probeVclock returns host ns per wake-up: Sleep(0) yields and futures
// completed by another goroutine and waited for here, half each.
func probeVclock(clk *vclock.Clock) float64 {
	return probeFor(func(n int) {
		for i := 0; i < n; i += 2 {
			clk.Sleep(0)
			f := clk.NewFuture()
			clk.Go(func() { f.Complete(nil) })
			_ = f.Wait()
		}
	})
}

// --- assembling the per-layer metrics ----------------------------------------

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// weightedPercentile approximates a percentile over several histograms
// that cannot be merged: the count-weighted mean of each one's percentile.
func weightedPercentile(ts []volmgr.TenantStats, p float64) float64 {
	var sum, n float64
	for _, t := range ts {
		c := float64(t.QueueDelay.Count())
		sum += c * float64(t.QueueDelay.Percentile(p))
		n += c
	}
	return ratio(sum, n)
}

func (r *run) perLayer(res *result, end endSnapshot) error {
	w, lt := r.opt.w, r.lt
	set := func(name string, v float64) { res.Metrics[name] = metric{v, perLayerUnit(name)} }

	// Sums over all timed epochs, and over the traced ones alone.
	var all counters
	var allOps, onOps, allSim, onSim, gcCycles float64
	var tenants []volmgr.TenantStats
	var dispatched, batches, coalesced float64
	for i := range r.epochs {
		st := &r.epochs[i]
		all.add(st.layer.delta, 1)
		allOps += float64(st.ops)
		allSim += float64(st.simNs)
		gcCycles += float64(st.gcCycles)
		if st.traced {
			onOps += float64(st.ops)
			onSim += float64(st.simNs)
		}
		tenants = append(tenants, st.layer.tenants...)
		dispatched += float64(st.layer.dispatched)
		batches += float64(st.layer.batches)
		coalesced += float64(st.layer.coalesced)
	}
	wallNs := func(st *epochStats) float64 { return float64(st.wallNs) }
	hostOff := median(r.perOp(wallNs, func(st *epochStats) bool { return !st.traced }))
	hostOn := median(r.perOp(wallNs, func(st *epochStats) bool { return st.traced }))

	directHost, directLat := lt.directHost, lt.directLat
	// volmgr
	var accepted, shed, errored int64
	for _, t := range tenants {
		accepted += t.Accepted
		shed += t.Shed
		errored += t.Errored
	}
	attempted := float64(accepted + shed)
	var over float64
	for _, l := range r.sortedLatencies(nil) {
		if float64(l)/1e3 > w.limitUs {
			over++
		}
	}
	perTenant := make([]float64, w.clients)
	for i, t := range tenants {
		perTenant[i%w.clients] += float64(t.CompletedBytes)
	}
	reads := r.sortedLatencies(func(o *op) bool { return !o.write })
	writes := r.sortedLatencies(func(o *op) bool { return o.write })
	set("volmgr.submit_host_ns", median(lt.spans.submitNs("volmgr.submit")))
	set("volmgr.queue_sim_us_p50", weightedPercentile(tenants, 50)/1e3)
	set("volmgr.queue_sim_us_p99", weightedPercentile(tenants, 99)/1e3)
	set("volmgr.read_sim_us_p99", tailUs(reads))
	set("volmgr.write_sim_us_p99", tailUs(writes))
	set("volmgr.coalesce_ratio", ratio(coalesced, dispatched))
	set("volmgr.batch_mean", ratio(dispatched, batches))
	set("volmgr.shed_share", ratio(float64(shed), attempted))
	set("volmgr.slo_miss_share", ratio(float64(shed+errored)+over, attempted))
	set("volmgr.jain", volmgr.JainIndex(perTenant))
	set("volmgr.self_host_ns_per_op", hostOff-directHost)

	// raizn
	tot := all.total()
	user := float64(end.user)
	set("raizn.direct_host_ns_per_op", directHost)
	set("raizn.direct_sim_us_p50", float64(percentile(directLat, 50))/1e3)
	set("raizn.direct_sim_us_p99", tailUs(directLat))
	set("raizn.submit_host_ns", median(lt.spans.submitNs("raizn.submit")))
	set("raizn.subio_per_op", float64(tot.writeCmds+all.coalescedSub)/allOps)
	set("raizn.coalesced_subwrites_per_op", float64(all.coalescedSub)/allOps)
	set("raizn.full_parity_per_op", float64(all.fullParity)/allOps)
	set("raizn.pp_logs_per_op", float64(all.ppLogs)/allOps)
	set("raizn.wa_data", float64(end.data)/user)
	set("raizn.wa_parity", float64(end.parity)/user)
	set("raizn.wa_pp", float64(end.pp)/user)
	set("raizn.wa_metadata", float64(end.metadata)/user)
	// Every byte raizn puts on a device is charged to one category, so the
	// categories must add up to what the devices counted.
	if sum := end.data + end.parity + end.pp + end.metadata + end.reb; math.Abs(float64(sum-end.hostWritten)) > 0.001*float64(end.hostWritten) {
		return fmt.Errorf("raizn.wa_* cover %d bytes but the devices were written %d", sum, end.hostWritten)
	}
	set("raizn.md_gcs", float64(end.mdGCs))
	set("raizn.relocations", float64(end.relocations))
	set("raizn.degraded_pieces_per_op", float64(all.deg)/allOps)
	rebuiltMiB := float64(lt.rebuild.BytesWritten) / (1 << 20)
	set("raizn.rebuild_sim_mib_s", ratio(rebuiltMiB, lt.rebuild.Elapsed.Seconds()))
	set("raizn.rebuild_host_ns_per_mib", ratio(float64(lt.rebuildHost), rebuiltMiB))
	set("raizn.mount_sim_ms", float64(lt.mountSim)/1e6)
	set("raizn.mount_host_ms", float64(lt.mountHost)/1e6)

	// ppengine
	ppBytes := float64(end.engine.VolatileBytes + end.engine.PermanentBytes)
	set("ppengine.pp_bytes_per_user_byte", ppBytes/user)
	set("ppengine.volatile_share", ratio(float64(end.engine.VolatileBytes), ppBytes))
	set("ppengine.fallbacks", float64(end.engine.FallbackTotal))
	set("ppengine.gc_runs", float64(end.engine.GCRuns))
	set("ppengine.gc_migrated", float64(end.engine.GCMigrated))

	// zns: pipe utilisation of the busiest device. Writes over all timed
	// epochs; reads over the traced ones, where read commands are counted.
	dc := w.deviceConfig()
	var writeUtil, readUtil, readCmds, readBytes, spans float64
	for _, d := range all.dev {
		busy := float64(d.hostWrite)/dc.WriteBandwidth + float64(d.writeCmds)*dc.WriteOpOverhead.Seconds()
		writeUtil = math.Max(writeUtil, ratio(busy, allSim/1e9))
	}
	for i, o := range lt.observers {
		spans += float64(o.spans)
		for slot, n := range o.devReads {
			readCmds += float64(n)
			readBytes += float64(lt.readBytes[i][slot])
			busy := float64(lt.readBytes[i][slot])/dc.ReadBandwidth + float64(n)*dc.ReadOpOverhead.Seconds()
			readUtil = math.Max(readUtil, ratio(busy, onSim/1e9))
		}
	}
	writeCmdBytes := ratio(float64(end.hostWritten), float64(end.writeCmds))
	set("zns.write_cmds_per_op", float64(tot.writeCmds)/allOps)
	set("zns.read_cmds_per_op", ratio(readCmds, onOps))
	set("zns.bytes_per_write_cmd", writeCmdBytes)
	set("zns.flushes_per_op", float64(tot.flushes)/allOps)
	set("zns.resets", float64(end.resets))
	set("zns.finishes", float64(lt.finishes))
	set("zns.write_pipe_util", writeUtil)
	set("zns.read_pipe_util", readUtil)
	set("zns.flash_per_host_byte", ratio(float64(end.flash), float64(end.hostWritten)))

	// Probes, at the run's own mean device command sizes.
	pool := r.s.pool
	writeSectors := int64(writeCmdBytes) / sectorBytes
	readSectors := writeSectors
	if readCmds > 0 {
		readSectors = int64(readBytes/readCmds) / sectorBytes
	}
	var enc, rec, ringNs, zw, zr, wake float64
	for _, p := range []struct {
		name string
		fn   func()
	}{
		{"parity.probe", func() { enc, rec = probeParity(pool) }},
		{"ring.probe", func() { ringNs = probeRing(r.clk, pool) }},
		{"zns.probe", func() { zw, zr = probeZNS(r.clk, pool, writeSectors, readSectors) }},
		{"vclock.probe", func() { wake = probeVclock(r.clk) }},
	} {
		_ = lt.spans.do(p.name, func() error { p.fn(); return nil })
	}
	set("parity.probe_gib_s", enc)
	set("parity.probe_reconstruct_gib_s", rec)
	set("ring.probe_host_ns_per_cmd", ringNs)
	set("zns.probe_write_host_ns_per_cmd", zw)
	set("zns.probe_read_host_ns_per_cmd", zr)
	set("vclock.probe_host_ns_per_wake", wake)

	// obs, CPU shares, runtime, bench
	set("obs.trace_overhead_pct", 100*(ratio(hostOn, hostOff)-1))
	set("obs.spans_per_op", ratio(spans, onOps))
	samples, err := parseCPUProfile(lt.profile.Bytes())
	if err != nil {
		return err
	}
	shares := cpuShares(samples)
	for _, layer := range cpuLayers {
		set(layer+".cpu_share", shares[layer])
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // a failure reports a zero peak
	set("runtime.gc_cpu_share", ms.GCCPUFraction)
	set("runtime.gc_cycles", gcCycles)
	set("runtime.peak_rss_mib", float64(ru.Maxrss)/1024)
	var late []int64
	for _, l := range r.late {
		late = append(late, l...)
	}
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	set("bench.gen_late_us_p99", tailUs(late))
	set("bench.stream_hash", float64(r.stream.hash&(1<<32-1)))

	var sampled int64
	for _, sm := range samples {
		sampled += sm.count
	}
	fmt.Fprintf(r.opt.out, "# %s seed %d scale %.3g traced: %d CPU profile samples, stream hash %016x\n",
		w.name, r.opt.seed, r.opt.scale, sampled, r.stream.hash)
	if lt.breakdown != nil {
		fmt.Fprintln(r.opt.out, "# raizn tracer, simulated-time phase split of the last traced epoch:")
		lt.breakdown.Write(r.opt.out)
	}
	for _, d := range perLayerDefs {
		if _, ok := res.Metrics[d.name]; !ok {
			return fmt.Errorf("per-layer metric %s was not measured", d.name)
		}
	}
	path := fmt.Sprintf("trace-%s.json", w.name)
	if err := lt.spans.writeFile(path, w, r.opt.seed); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}
