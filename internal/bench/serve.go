package bench

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"
	"time"

	"raizn/internal/raizn"
	"raizn/internal/stats"
	"raizn/internal/vclock"
	"raizn/internal/volmgr"
	"raizn/internal/zns"
)

// serveScale sizes the serving workload. The full run matches the PR's
// acceptance bar: >= 64 tenants and >= 1000 concurrent client
// goroutines sharing four RAIZN arrays behind one volume manager.
type serveScale struct {
	arrays  int // hosted RAIZN arrays
	tenants int
	clients int   // client goroutines per tenant (fairness phase)
	chunk   int64 // sectors per closed-loop write
}

func serveScaleFor(quick bool) serveScale {
	if quick {
		return serveScale{arrays: 4, tenants: 16, clients: 8, chunk: 16}
	}
	return serveScale{arrays: 4, tenants: 64, clients: 16, chunk: 16}
}

// runServe drives the volmgr front end through four phases, each on a
// fresh volume over the same hosted arrays:
//
//  1. fairness: equal-weight tenants, closed-loop saturation; Jain's
//     index over a steady-state window must be ~1.
//  2. weighted: half the tenants at weight 2; the per-tenant service
//     ratio over a steady-state window must be ~2:1.
//  3. openloop: Poisson arrivals with Zipf-distributed sizes at ~1.6x
//     the measured capacity; admission control sheds the excess while
//     the survivors' tail latency stays bounded.
//  4. overhead: one tenant, one client, engine vs direct array writes.
//
// Everything runs on one virtual clock with seeded RNGs, so the run is
// reproducible end to end.
func runServe(w io.Writer, quick bool) error {
	sv := serveScaleFor(quick)
	sc := scaleFor(quick)

	// One zone stays open per tenant shard while the shard is hot, so
	// the device model must budget open zones for the tenant population
	// — a deployment choice, exactly like sizing the arrays themselves.
	// Phases finish their zones on teardown, so the budget covers one
	// phase's concurrent writers, not the whole run.
	dcfg := znsConfig(sc, true)
	perArray := (sv.tenants + sv.arrays - 1) / sv.arrays
	if need := perArray + 5; dcfg.MaxOpenZones < need {
		dcfg.MaxOpenZones = need
	}
	if need := dcfg.MaxOpenZones + 8; dcfg.MaxActiveZones < need {
		dcfg.MaxActiveZones = need
	}

	clk := vclock.New()
	var (
		fair           phaseResult
		wtd            phaseResult
		open           phaseResult
		ratio          float64
		breach         int
		engMiB, dirMiB float64
	)
	var runErr error
	clk.Run(func() {
		m := volmgr.NewManager(clk, volmgr.Config{Registry: runRegistry})
		for a := 0; a < sv.arrays; a++ {
			devs := make([]*zns.Device, sc.numDevices)
			for i := range devs {
				devs[i] = zns.NewDevice(clk, dcfg)
				devs[i].RegisterMetrics(runRegistry, fmt.Sprintf("zns_a%d_dev%d", a, i))
			}
			rcfg := raizn.DefaultConfig()
			rcfg.Metrics = runRegistry
			rcfg.MetricsLabel = fmt.Sprintf("a%d", a)
			vol, err := raizn.Create(clk, devs, rcfg)
			if err != nil {
				runErr = err
				return
			}
			if _, err := m.AddArray(rcfg.MetricsLabel, vol); err != nil {
				runErr = err
				return
			}
		}

		fair = runFairPhase(clk, m, sv, "fair", nil)
		heavy := func(i int) int {
			if i < sv.tenants/2 {
				return 2
			}
			return 1
		}
		wtd = runFairPhase(clk, m, sv, "wtd", heavy)
		ratio = classRatio(wtd, sv.tenants/2)
		var alarm int
		open, alarm = runOpenLoopPhase(clk, m, sv, fair)
		breach = alarm
		engMiB, dirMiB = runOverheadPhase(clk, m, sv, sc, dcfg)
		if err := m.Close(); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		return runErr
	}
	if n := errored(fair, wtd, open); n > 0 {
		return fmt.Errorf("serve: %d requests errored (the workload model must not error)", n)
	}

	fmt.Fprintf(w, "\n%d tenants, %d client goroutines, %d arrays x %d devices\n",
		sv.tenants, sv.tenants*sv.clients, sv.arrays, sc.numDevices)

	fmt.Fprintf(w, "\nphase 1 — equal weights, closed loop (%d clients/tenant):\n", sv.clients)
	printTenantTable(w, fair, sv.tenants)
	fmt.Fprintf(w, "steady window %.2f..%.2f ms: aggregate %.1f MiB/s, Jain %.4f (1.0 = perfectly fair)\n",
		ms(fair.t1), ms(fair.t2), fair.aggMiB, fair.jain)

	fmt.Fprintf(w, "\nphase 2 — weights 2:1 (tenants 0..%d at weight 2):\n", sv.tenants/2-1)
	printClassTable(w, wtd, sv.tenants/2)
	fmt.Fprintf(w, "heavy/light service ratio %.2f (target 2.00, error %.1f%%)\n",
		ratio, math.Abs(ratio/2-1)*100)

	fmt.Fprintf(w, "\nphase 3 — open loop, Poisson arrivals, Zipf sizes, ~1.6x capacity:\n")
	printTenantTable(w, open, sv.tenants)
	fmt.Fprintf(w, "aggregate %.1f MiB/s delivered, %.1f%% of requests shed, Jain %.4f, SLO breaches %d\n",
		open.aggMiB, open.shedPct, open.jain, breach)

	fmt.Fprintf(w, "\nphase 4 — single-tenant engine overhead:\n")
	fmt.Fprintf(w, "through engine %.1f MiB/s, direct array %.1f MiB/s, overhead %.1f%% (negative = engine coalescing wins)\n",
		engMiB, dirMiB, (1-engMiB/dirMiB)*100)
	return nil
}

// phaseResult carries one phase's steady-state window measurements.
type phaseResult struct {
	stats   []volmgr.TenantStats // final snapshot (for percentiles, shed)
	winB    []int64              // per-tenant bytes completed inside the window
	t1, t2  time.Duration        // window bounds (virtual)
	aggMiB  float64
	jain    float64
	shedPct float64
}

// finish derives the aggregates from the window and final snapshot.
func (p *phaseResult) finish() {
	xs := make([]float64, len(p.winB))
	var winTotal int64
	for i, b := range p.winB {
		xs[i] = float64(b)
		winTotal += b
	}
	p.jain = volmgr.JainIndex(xs)
	p.aggMiB = stats.MiBps(winTotal, p.t2-p.t1)
	var acc, shed int64
	for _, t := range p.stats {
		acc += t.Accepted
		shed += t.Shed
	}
	if acc+shed > 0 {
		p.shedPct = float64(shed) / float64(acc+shed) * 100
	}
}

// tenantAlloc hands out the next sequential chunk of one tenant's zone.
// Allocation and submission happen in one turn (acquire..release) so the
// engine sees the tenant's LBAs in zone order — the volume keeps zoned
// sequential-write semantics. The turn is not a sync.Mutex held across
// SubmitWrite: an idle volume issues on the caller's goroutine, which may
// park inside the array, and a peer spinning on a mutex would keep the
// clock from ever waking it. Peers park on the turn instead.
type tenantAlloc struct {
	mu    sync.Mutex
	turn  *vclock.Cond
	busy  bool
	base  int64
	next  int64
	limit int64
}

func (a *tenantAlloc) acquire() {
	a.mu.Lock()
	for a.busy {
		a.turn.Wait()
	}
	a.busy = true
	a.mu.Unlock()
}

func (a *tenantAlloc) release() {
	a.mu.Lock()
	a.busy = false
	a.mu.Unlock()
	a.turn.Signal()
}

// runFairPhase runs one closed-loop phase: every tenant's clients write
// the tenant's zone up to a quota, the monitor snapshots per-tenant
// completed bytes at 25% and 75% of the reference class's total quota,
// and the delta between snapshots is the steady-state measurement
// (start-up transients and tail drain excluded). weight nil means equal
// weights; otherwise weight(i) configures tenant i.
func runFairPhase(clk *vclock.Clock, m *volmgr.Manager, sv serveScale, name string, weight func(int) int) phaseResult {
	tcs := make([]volmgr.TenantConfig, sv.tenants)
	for i := range tcs {
		tcs[i] = volmgr.TenantConfig{ID: fmt.Sprintf("t%02d", i)}
		if weight != nil {
			tcs[i].Weight = weight(i)
		}
	}
	v, err := m.CreateVolume(name, volmgr.VolumeSpec{
		Zones: sv.tenants,
		Engine: volmgr.EngineConfig{
			MaxInflight:    16,
			BatchSize:      8,
			QuantumSectors: sv.chunk,
		},
		Tenants: tcs,
	})
	if err != nil {
		panic(err)
	}
	zs := v.ZoneSectors()
	ss := int64(v.SectorSize())
	quota := zs / sv.chunk * sv.chunk
	if weight == nil {
		quota = zs / sv.chunk * 3 / 4 * sv.chunk // leave headroom: nobody finishes early
	}
	buf := make([]byte, sv.chunk*ss)

	allocs := make([]*tenantAlloc, sv.tenants)
	for i := range allocs {
		allocs[i] = &tenantAlloc{base: int64(i) * zs, limit: quota}
		allocs[i].turn = clk.NewCond(&allocs[i].mu)
	}

	clients := sv.clients
	if weight != nil {
		clients = 4 // the weighted phase needs backlog, not client count
	}
	wg := clk.NewWaitGroup()
	wg.Add(sv.tenants * clients)
	for i := 0; i < sv.tenants; i++ {
		id, a := tcs[i].ID, allocs[i]
		for c := 0; c < clients; c++ {
			clk.Go(func() {
				defer wg.Done()
				for {
					a.acquire()
					if a.next+sv.chunk > a.limit {
						a.release()
						return
					}
					fut, err := v.SubmitWrite(id, a.base+a.next, buf, 0)
					if err == nil {
						a.next += sv.chunk
					}
					a.release()
					if errors.Is(err, volmgr.ErrThrottled) {
						clk.Sleep(20 * time.Microsecond)
						continue
					}
					if err != nil {
						panic(err)
					}
					if err := fut.Wait(); err != nil {
						panic(err)
					}
				}
			})
		}
	}

	// The monitor: snapshot the reference class (the heavy tenants in a
	// weighted phase, everyone otherwise) at 25% and 75% of its quota.
	refTotal := int64(0)
	isRef := func(i int) bool { return weight == nil || weight(i) > 1 }
	for i := 0; i < sv.tenants; i++ {
		if isRef(i) {
			refTotal += quota * ss
		}
	}
	var res phaseResult
	var snap1, snap2 []volmgr.TenantStats
	phaseDone := false
	var monMu sync.Mutex
	monWG := clk.NewWaitGroup()
	monWG.Add(1)
	clk.Go(func() {
		defer monWG.Done()
		for {
			clk.Sleep(500 * time.Microsecond)
			monMu.Lock()
			done := phaseDone
			monMu.Unlock()
			st := v.TenantStats()
			var refB int64
			for i, t := range st {
				if isRef(i) {
					refB += t.CompletedBytes
				}
			}
			if snap1 == nil && refB*4 >= refTotal {
				snap1, res.t1 = st, clk.Now()
			}
			if snap1 != nil && snap2 == nil && (refB*4 >= refTotal*3 || done) {
				snap2, res.t2 = st, clk.Now()
			}
			if done {
				return
			}
		}
	})
	wg.Wait()
	monMu.Lock()
	phaseDone = true
	monMu.Unlock()
	monWG.Wait() // also orders the monitor's snap writes before the reads below

	if err := v.Close(); err != nil {
		panic(err)
	}
	finishZones(v, sv.tenants)
	res.stats = v.TenantStats()
	if snap1 == nil {
		snap1, res.t1 = res.stats, clk.Now()
	}
	if snap2 == nil {
		snap2, res.t2 = res.stats, clk.Now()
	}
	res.winB = make([]int64, sv.tenants)
	for i := range res.winB {
		res.winB[i] = snap2[i].CompletedBytes - snap1[i].CompletedBytes
	}
	res.finish()
	return res
}

// classRatio is the weighted phase's per-tenant service ratio: mean
// window bytes of tenants [0, nHeavy) over mean window bytes of the
// rest.
func classRatio(p phaseResult, nHeavy int) float64 {
	var hb, lb int64
	for i, b := range p.winB {
		if i < nHeavy {
			hb += b
		} else {
			lb += b
		}
	}
	nLight := len(p.winB) - nHeavy
	if lb == 0 || nLight == 0 || nHeavy == 0 {
		return 0
	}
	return (float64(hb) / float64(nHeavy)) / (float64(lb) / float64(nLight))
}

// zipfSizes are the open-loop request sizes in sectors (16 KiB..256 KiB
// at 4 KiB sectors); the Zipf skew makes small requests dominate counts
// while large ones dominate bytes — the heavy-tailed mix the paper's
// serving scenario assumes.
var zipfSizes = []int64{4, 8, 16, 32, 64}

const zipfS, zipfV = 1.3, 1.0

// zipfMeanSectors is the analytic mean of the mapped size distribution,
// used to convert a byte-rate target into a Poisson arrival rate.
func zipfMeanSectors() float64 {
	var z, mean float64
	for k := range zipfSizes {
		z += math.Pow(zipfV+float64(k), -zipfS)
	}
	for k, s := range zipfSizes {
		mean += math.Pow(zipfV+float64(k), -zipfS) / z * float64(s)
	}
	return mean
}

// runOpenLoopPhase offers ~1.6x the fairness phase's measured capacity
// as open-loop traffic: per tenant, exponential inter-arrival gaps and
// Zipf sizes from a seeded RNG. Arrivals that catch a full queue are
// shed by admission control and counted, not retried — open-loop
// clients don't wait. Returns the phase result and the SLO alarm's
// breach count.
func runOpenLoopPhase(clk *vclock.Clock, m *volmgr.Manager, sv serveScale, fair phaseResult) (phaseResult, int) {
	tcs := make([]volmgr.TenantConfig, sv.tenants)
	for i := range tcs {
		tcs[i] = volmgr.TenantConfig{ID: fmt.Sprintf("t%02d", i)}
	}
	v, err := m.CreateVolume("open", volmgr.VolumeSpec{
		Zones: sv.tenants,
		Engine: volmgr.EngineConfig{
			QueueDepth:     16, // small queues: overload must shed, not buffer
			MaxInflight:    32,
			BatchSize:      8,
			QuantumSectors: sv.chunk,
		},
		Tenants: tcs,
	})
	if err != nil {
		panic(err)
	}
	zs := v.ZoneSectors()
	ss := int64(v.SectorSize())

	// Offered load: 1.6x the closed-loop capacity, split evenly.
	capSectors := fair.aggMiB * (1 << 20) / float64(ss) // sectors/s
	if capSectors <= 0 {
		capSectors = 1e5
	}
	perTenant := capSectors * 1.6 / float64(sv.tenants)
	meanGap := time.Duration(zipfMeanSectors() / perTenant * float64(time.Second))
	buf := make([]byte, zipfSizes[len(zipfSizes)-1]*ss)

	start := clk.Now()
	deadline := start + 200*time.Millisecond // backstop; the zone quota ends the phase first
	wg := clk.NewWaitGroup()
	wg.Add(sv.tenants)
	for i := 0; i < sv.tenants; i++ {
		i := i
		clk.Go(func() {
			defer wg.Done()
			id := tcs[i].ID
			base := int64(i) * zs
			rng := rand.New(rand.NewSource(9000 + int64(i)))
			zipf := rand.NewZipf(rng, zipfS, zipfV, uint64(len(zipfSizes)-1))
			next := int64(0)
			for clk.Now() < deadline {
				clk.Sleep(time.Duration(rng.ExpFloat64() * float64(meanGap)))
				size := zipfSizes[zipf.Uint64()]
				if next+size > zs {
					return // zone exhausted; this tenant's run is over
				}
				_, err := v.SubmitWrite(id, base+next, buf[:size*ss], 0)
				if errors.Is(err, volmgr.ErrThrottled) {
					continue // shed: the LBA is not consumed, order holds
				}
				if err != nil {
					panic(err)
				}
				next += size
			}
		})
	}
	wg.Wait()
	t2 := clk.Now()
	if err := v.Close(); err != nil { // drains everything accepted
		panic(err)
	}
	finishZones(v, sv.tenants)

	var res phaseResult
	res.stats = v.TenantStats()
	res.t1, res.t2 = start, t2
	res.winB = make([]int64, sv.tenants)
	for i, t := range res.stats {
		res.winB[i] = t.CompletedBytes
	}
	res.finish()
	return res, len(v.Alarm().Check())
}

// runOverheadPhase writes one full zone through the engine (one tenant,
// one client, window of 8) and the same pattern directly against a
// fresh RAIZN array, and returns both throughputs in MiB/s.
func runOverheadPhase(clk *vclock.Clock, m *volmgr.Manager, sv serveScale, sc scale, dcfg zns.Config) (engMiB, dirMiB float64) {
	v, err := m.CreateVolume("solo", volmgr.VolumeSpec{
		Zones:   1,
		Engine:  volmgr.EngineConfig{MaxInflight: 16, BatchSize: 8, QuantumSectors: sv.chunk},
		Tenants: []volmgr.TenantConfig{{ID: "solo"}},
	})
	if err != nil {
		panic(err)
	}
	zs := v.ZoneSectors()
	ss := int64(v.SectorSize())
	buf := make([]byte, sv.chunk*ss)

	window := func(submit func(lba int64) *vclock.Future) time.Duration {
		t0 := clk.Now()
		var futs []*vclock.Future
		for off := int64(0); off+sv.chunk <= zs; off += sv.chunk {
			if len(futs) == 8 {
				if err := futs[0].Wait(); err != nil {
					panic(err)
				}
				futs = futs[1:]
			}
			futs = append(futs, submit(off))
		}
		for _, f := range futs {
			if err := f.Wait(); err != nil {
				panic(err)
			}
		}
		return clk.Now() - t0
	}

	engDur := window(func(off int64) *vclock.Future {
		fut, err := v.SubmitWrite("solo", off, buf, 0)
		if err != nil {
			panic(err)
		}
		return fut
	})
	if err := v.Close(); err != nil {
		panic(err)
	}

	// Direct baseline: the same sequential pattern against a standalone
	// array of identical geometry, no engine in the path.
	devs := make([]*zns.Device, sc.numDevices)
	for i := range devs {
		devs[i] = zns.NewDevice(clk, dcfg)
	}
	rcfg := raizn.DefaultConfig()
	rcfg.Metrics = runRegistry
	rcfg.MetricsLabel = "direct"
	dv, err := raizn.Create(clk, devs, rcfg)
	if err != nil {
		panic(err)
	}
	dirDur := window(func(off int64) *vclock.Future {
		return dv.SubmitWrite(off, buf, 0)
	})

	bytes := zs / sv.chunk * sv.chunk * ss
	return stats.MiBps(bytes, engDur), stats.MiBps(bytes, dirDur)
}

// finishZones seals every zone a phase wrote, returning the arrays'
// open-zone slots before the next phase claims its own.
func finishZones(v *volmgr.Volume, zones int) {
	for z := 0; z < zones; z++ {
		if err := v.FinishZone(z); err != nil {
			panic(err)
		}
	}
}

// errored sums the tenants' errored-request counters.
func errored(ps ...phaseResult) int64 {
	var n int64
	for _, p := range ps {
		for _, t := range p.stats {
			n += t.Errored
		}
	}
	return n
}

// printTenantTable renders a sampled per-tenant table: every tenant on
// quick scales, every 8th (plus the last) on full scales.
func printTenantTable(w io.Writer, p phaseResult, tenants int) {
	t := newTable(w, "tenant", "weight", "win MiB/s", "p50(us)", "p99(us)", "p99.9(us)", "shed%")
	step := 1
	if tenants > 16 {
		step = 8
	}
	dur := p.t2 - p.t1
	for i := 0; i < tenants; i += step {
		t.row(tenantRow(p, i, dur)...)
	}
	if (tenants-1)%step != 0 {
		t.row(tenantRow(p, tenants-1, dur)...)
	}
}

// printClassTable renders the weighted phase as two aggregate rows.
func printClassTable(w io.Writer, p phaseResult, nHeavy int) {
	t := newTable(w, "class", "tenants", "weight", "win MiB/s", "MiB/s each")
	dur := p.t2 - p.t1
	var hb, lb int64
	for i, b := range p.winB {
		if i < nHeavy {
			hb += b
		} else {
			lb += b
		}
	}
	nLight := len(p.winB) - nHeavy
	t.row("heavy", fmt.Sprintf("%d", nHeavy), "2", f1(stats.MiBps(hb, dur)),
		f2(stats.MiBps(hb, dur)/float64(nHeavy)))
	t.row("light", fmt.Sprintf("%d", nLight), "1", f1(stats.MiBps(lb, dur)),
		f2(stats.MiBps(lb, dur)/float64(nLight)))
}

func tenantRow(p phaseResult, i int, dur time.Duration) []string {
	st := p.stats[i]
	shed := 0.0
	if st.Accepted+st.Shed > 0 {
		shed = float64(st.Shed) / float64(st.Accepted+st.Shed) * 100
	}
	return []string{
		st.ID,
		fmt.Sprintf("%d", st.Weight),
		f1(stats.MiBps(p.winB[i], dur)),
		f1(us(st.Latency.Percentile(50))),
		f1(us(st.Latency.Percentile(99))),
		f1(us(st.Latency.Percentile(99.9))),
		f1(shed),
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
