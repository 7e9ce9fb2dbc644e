package volmgr

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"raizn/internal/obs"
	"raizn/internal/stats"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// EngineConfig tunes one volume's async submission engine.
type EngineConfig struct {
	// QueueDepth bounds each tenant's submission queue; a submit against
	// a full queue is shed with a ThrottledError. Default 64.
	QueueDepth int
	// MaxInflight bounds requests issued to the arrays but not yet
	// completed. Default 64.
	MaxInflight int
	// BatchSize bounds how many requests one scheduling round dequeues
	// before issuing. Default 16.
	BatchSize int
	// QuantumSectors is the deficit-round-robin quantum credited per
	// unit of tenant weight each scheduling round. Default 64.
	QuantumSectors int64
	// SLO configures the volume's per-tenant SLO alarm.
	SLO obs.SLOConfig
}

func (c EngineConfig) withDefaults() EngineConfig {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 16
	}
	if c.QuantumSectors <= 0 {
		c.QuantumSectors = 64
	}
	return c
}

type opKind int

const (
	opWrite opKind = iota
	opRead
)

// request is one client IO. sectors is redundant with len(data) but sits
// on every scheduling decision, so it is computed once. A submitted
// request's fut points at its own done, and a request issued alone hands
// arr to its array to complete, so request and both futures are one
// allocation. A request is never reused: the array may keep a durable
// write's arr after it completes (raizn.Volume.SubmitWriteTo).
type request struct {
	tn      *tenant
	kind    opKind
	lba     int64
	data    []byte
	flags   zns.Flag
	sectors int64
	submitT time.Duration
	fut     *vclock.Future
	done    vclock.Future
	arr     vclock.Future // the array's completion of a run of one

	// Set at issue, for Notify: the request completes itself when it ran
	// alone, so a single request needs no closure and no run slice.
	e       *engine
	arrayID string
}

// Notify completes a request that was issued as a run of one
// (vclock.Notifier).
func (r *request) Notify(err error) {
	run := [1]*request{r}
	r.e.completeRun(run[:], r.arrayID, err)
}

// engine is one volume's submission engine: per-tenant FIFO queues in
// front, a dispatcher goroutine in the middle, the volume's extent map
// and arrays behind. An idle volume issues a request on the submitting
// goroutine; anything that has to wait — behind a backlog, for the
// in-flight window or for tokens — is queued, and the single dispatcher
// decides its scheduling, coalescing and issue order. That is what lets
// thousands of client goroutines share the arrays' write path, which
// issues one zone's writes one at a time, without per-client lock
// convoys, and it keeps per-zone write
// order deterministic: a submit is issued inline only when all four of
//
//   - no tenant has anything queued (queued == 0),
//   - the dispatcher is not between dequeuing a batch and handing it to
//     the arrays (!issuing),
//   - the in-flight window has room, and
//   - the tenant's token buckets admit it now,
//
// hold, so an inline request never overtakes one that was accepted
// before it, and DRR has nothing to order.
type engine struct {
	v   *Volume
	cfg EngineConfig

	alarm *obs.SLOAlarm

	mu       sync.Mutex
	work     *vclock.Cond // dispatcher parks here for new work / freed window
	idle     *vclock.Cond // drain/close waiters park here
	tenants  map[string]*tenant
	order    []string      // registration order; also the DRR ring order
	ring     int           // persistent DRR ring position
	turn     bool          // the flow at ring has an open (quantum-credited) turn
	queued   int           // requests in tenant queues
	inflight int           // requests issued to arrays, not yet completed
	issuing  bool          // the dispatcher is issuing a dequeued batch
	refillAt time.Duration // deadline of the last refill timer armed; pending while ahead of now
	refill   func()        // the refill timer's callback: wakes the dispatcher
	started  bool
	closed   bool
	done     bool

	dispatched *obs.Counter // requests issued to arrays
	batches    *obs.Counter // scheduling rounds that issued at least one request
	coalesced  *obs.Counter // requests merged into a preceding array command
	inlined    *obs.Counter // requests issued on the submitting goroutine
	wakes      *obs.Counter // times the dispatcher woke from its Cond
}

func newEngine(v *Volume, cfg EngineConfig) *engine {
	cfg = cfg.withDefaults()
	e := &engine{
		v:       v,
		cfg:     cfg,
		tenants: make(map[string]*tenant),
	}
	e.alarm = obs.NewSLOAlarm(cfg.SLO, e.latencies)
	e.work = v.clk.NewCond(&e.mu)
	e.idle = v.clk.NewCond(&e.mu)
	e.refill = e.work.Signal

	n := func(name string) string { return obs.LabeledName(name, "volume", v.name) }
	e.dispatched = v.reg.Counter(n("volmgr_dispatched_total"))
	e.batches = v.reg.Counter(n("volmgr_batches_total"))
	e.coalesced = v.reg.Counter(n("volmgr_coalesced_requests_total"))
	e.inlined = v.reg.Counter(n("volmgr_inline_requests_total"))
	e.wakes = v.reg.Counter(n("volmgr_dispatcher_wakes_total"))
	v.reg.GaugeFunc(n("volmgr_queued"), func() int64 {
		e.mu.Lock()
		defer e.mu.Unlock()
		return int64(e.queued)
	})
	v.reg.GaugeFunc(n("volmgr_inflight"), func() int64 {
		e.mu.Lock()
		defer e.mu.Unlock()
		return int64(e.inflight)
	})
	return e
}

// addTenant registers a tenant and its metric series.
func (e *engine) addTenant(cfg TenantConfig) error {
	if cfg.ID == "" {
		return fmt.Errorf("volmgr: tenant needs an id")
	}
	cfg = cfg.withDefaults()
	now := e.v.clk.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.tenants[cfg.ID]; ok {
		return fmt.Errorf("volmgr: tenant %q already registered", cfg.ID)
	}
	n := func(name string) string {
		return obs.LabeledName(name, "tenant", cfg.ID, "volume", e.v.name)
	}
	t := &tenant{
		cfg:     cfg,
		bytesTB: newBucket(cfg.RateSectorsPerSec, cfg.BurstSectors, now),
		iopsTB:  newBucket(cfg.IOPS, cfg.IOPSBurst, now),

		accepted:       e.v.reg.Counter(n("volmgr_requests_accepted_total")),
		shed:           e.v.reg.Counter(n("volmgr_requests_shed_total")),
		completedOps:   e.v.reg.Counter(n("volmgr_requests_completed_total")),
		completedBytes: e.v.reg.Counter(n("volmgr_completed_bytes")),
		errored:        e.v.reg.Counter(n("volmgr_requests_errored_total")),
		lat:            e.v.reg.Histogram(n("volmgr_request_latency")),
		queueDelay:     e.v.reg.Histogram(n("volmgr_queue_delay")),
		perArray:       make(map[string]*arrayAgg),
	}
	e.tenants[cfg.ID] = t
	e.order = append(e.order, cfg.ID)
	return nil
}

// latencies returns each tenant's request-latency histogram, the series
// the SLO alarm evaluates.
func (e *engine) latencies() map[string]*stats.Histogram {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]*stats.Histogram, len(e.tenants))
	for id, t := range e.tenants {
		out[id] = t.lat
	}
	return out
}

// start launches the dispatcher. Must be called exactly once, from the
// manager, before any submission.
func (e *engine) start() {
	e.mu.Lock()
	if e.started {
		e.mu.Unlock()
		return
	}
	e.started = true
	e.mu.Unlock()
	e.v.clk.Go(e.dispatcherLoop)
}

// submit validates, admits, and issues or enqueues one request (see the
// engine comment for when it is issued on the caller's goroutine).
// Validation errors and admission rejections surface synchronously;
// everything else is reported through the returned future.
func (e *engine) submit(tid string, kind opKind, lba int64, data []byte, flags zns.Flag) (*vclock.Future, error) {
	ss := int64(e.v.sectorSize)
	if len(data) == 0 || int64(len(data))%ss != 0 {
		return nil, ErrUnaligned
	}
	sectors := int64(len(data)) / ss
	if _, _, err := e.v.locate(lba, sectors); err != nil {
		return nil, err
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	t := e.tenants[tid]
	if t == nil {
		e.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, tid)
	}
	if len(t.q) >= e.cfg.QueueDepth {
		t.shed.Inc()
		e.mu.Unlock()
		return nil, &ThrottledError{
			Volume: e.v.name,
			Tenant: tid,
			Reason: fmt.Sprintf("queue full (depth %d)", e.cfg.QueueDepth),
		}
	}
	r := &request{
		tn:      t,
		kind:    kind,
		lba:     lba,
		data:    data,
		flags:   flags,
		sectors: sectors,
		submitT: e.v.clk.Now(),
	}
	e.v.clk.InitFuture(&r.done)
	r.fut = &r.done
	t.accepted.Inc()
	if e.queued == 0 && !e.issuing && e.inflight < e.cfg.MaxInflight && t.tokenETA(r, r.submitT) == 0 {
		t.takeTokens(r, r.submitT)
		e.inflight++
		e.batches.Inc()
		e.dispatched.Inc()
		e.inlined.Inc()
		e.mu.Unlock()
		t.queueDelay.Record(0)
		e.issueOne(r)
		return r.fut, nil
	}
	t.q = append(t.q, r)
	e.queued++
	e.mu.Unlock()
	e.work.Signal()
	return r.fut, nil
}

// dispatcherLoop is the engine's single scheduling goroutine. Each
// iteration either issues a batch or parks until a queued submit, a
// completion with work queued, or the earliest token-bucket refill
// changes the picture.
func (e *engine) dispatcherLoop() {
	e.mu.Lock()
	for {
		if e.inflight < e.cfg.MaxInflight {
			batch, wait := e.scheduleLocked()
			if len(batch) > 0 {
				e.inflight += len(batch)
				e.batches.Inc()
				e.dispatched.Add(int64(len(batch)))
				e.issuing = true
				e.mu.Unlock()
				e.issue(batch)
				e.mu.Lock()
				e.issuing = false
				continue
			}
			if wait > 0 {
				// Every backlogged tenant is token-limited. Park on
				// e.work, not in Sleep: another tenant's submit must
				// still wake the dispatcher. A timer wakes it at the
				// earliest refill unless one due no later is pending.
				if now := e.v.clk.Now(); e.refillAt <= now || now+wait < e.refillAt {
					e.refillAt = now + wait
					e.v.clk.AfterFunc(wait, e.refill)
				}
			}
		}
		if e.closed && e.queued == 0 && e.inflight == 0 {
			e.done = true
			e.mu.Unlock()
			e.idle.Broadcast()
			return
		}
		e.work.Wait()
		e.wakes.Inc()
	}
}

// scheduleLocked runs deficit round robin over the tenant ring and
// returns the next batch to issue. When every backlogged tenant is
// blocked on a token bucket it instead returns the shortest refill
// wait. Caller holds e.mu.
//
// A flow's turn opens with one quantum×weight credit and stays open —
// across scheduleLocked calls, surviving in-flight-window interruptions
// — until its deficit no longer covers its head request; only then does
// the ring advance. Rotating (or re-crediting) per call instead would
// collapse to one-request-per-tenant alternation whenever the window
// frees slots one at a time, erasing the weights.
func (e *engine) scheduleLocked() ([]*request, time.Duration) {
	if e.queued == 0 || len(e.order) == 0 {
		return nil, 0
	}
	now := e.v.clk.Now()
	limit := e.cfg.BatchSize
	if w := e.cfg.MaxInflight - e.inflight; w < limit {
		limit = w
	}
	var batch []*request
	minWait := time.Duration(-1)
	// fruitless counts consecutive ended turns that served nothing and
	// were not deficit-blocked; a full ring of those means every
	// backlogged flow is token-limited (or nothing is queued).
	for fruitless := 0; fruitless < len(e.order); {
		t := e.tenants[e.order[e.ring%len(e.order)]]
		if len(t.q) == 0 {
			t.deficit = 0 // classic DRR: no credit hoarding while idle
			e.ring++
			e.turn = false
			fruitless++
			continue
		}
		if !e.turn {
			t.deficit += int64(t.cfg.Weight) * e.cfg.QuantumSectors
			// Cap the deficit at "enough for the head plus one quantum":
			// guarantees the head is eventually affordable while bounding
			// the burst a long-blocked tenant can unleash later.
			if max := t.q[0].sectors + int64(t.cfg.Weight)*e.cfg.QuantumSectors; t.deficit > max {
				t.deficit = max
			}
			e.turn = true
		}
		served := false
		tokenBlocked := false
		for len(t.q) > 0 && len(batch) < limit {
			r := t.q[0]
			if r.sectors > t.deficit {
				break
			}
			if w := t.tokenETA(r, now); w > 0 {
				if minWait < 0 || w < minWait {
					minWait = w
				}
				tokenBlocked = true
				break
			}
			t.takeTokens(r, now)
			t.deficit -= r.sectors
			t.q = t.q[1:]
			e.queued--
			batch = append(batch, r)
			served = true
		}
		if len(batch) >= limit {
			return batch, 0 // turn stays open; resume this flow next call
		}
		// The flow could not fill the batch: its turn is over.
		if len(t.q) == 0 {
			t.deficit = 0
		}
		e.ring++
		e.turn = false
		switch {
		case served:
			fruitless = 0
		case tokenBlocked:
			fruitless++
		default:
			// Deficit-blocked: the next arrival credits another quantum,
			// so progress is guaranteed; keep cycling.
			fruitless = 0
		}
	}
	if len(batch) > 0 {
		return batch, 0
	}
	if minWait < 0 {
		minWait = 0
	}
	return nil, minWait
}

// issue translates a batch through the extent map and submits it to the
// arrays in batch order, merging runs of physically contiguous writes
// from the same tenant with identical flags into one array command.
// Issue order is the only writer of each zone's write pointer, so
// per-tenant FIFO submission keeps per-zone sequential semantics.
func (e *engine) issue(batch []*request) {
	now := e.v.clk.Now()
	for _, r := range batch {
		r.tn.queueDelay.Record(now - r.submitT)
	}
	for i := 0; i < len(batch); {
		r := batch[i]
		run := batch[i : i+1]
		if r.kind == opWrite {
			end := r.lba + r.sectors
			for j := i + 1; j < len(batch); j++ {
				nx := batch[j]
				if nx.kind != opWrite || nx.tn != r.tn || nx.flags != r.flags ||
					nx.lba != end || nx.lba/e.v.zoneSectors != r.lba/e.v.zoneSectors {
					break
				}
				end = nx.lba + nx.sectors
				run = batch[i : j+1]
			}
		}
		e.issueRun(run)
		i += len(run)
	}
}

// issueRun submits one run (a single request, or coalesced contiguous
// writes) and subscribes run completion onto the array future — no
// waiter goroutine per run; the completion callback rides whichever
// goroutine resolves the future (a device's timer callback, mostly).
func (e *engine) issueRun(run []*request) {
	if len(run) == 1 {
		e.issueOne(run[0])
		return
	}
	r0 := run[0]
	ext, arrLBA, err := e.v.locate(r0.lba, r0.sectors) // revalidated at submit; cannot fail
	if err != nil {
		e.completeRun(run, "", err)
		return
	}
	total := 0
	for _, r := range run {
		total += len(r.data)
	}
	buf := make([]byte, 0, total)
	for _, r := range run {
		buf = append(buf, r.data...)
	}
	fut := ext.arr.vol.SubmitWrite(arrLBA, buf, r0.flags)
	e.coalesced.Add(int64(len(run) - 1))
	fut.Subscribe(func(err error) {
		e.completeRun(run, ext.arr.id, err)
	})
}

// issueOne submits a run of one request, which completes itself (Notify).
func (e *engine) issueOne(r *request) {
	r.e = e
	ext, arrLBA, err := e.v.locate(r.lba, r.sectors) // revalidated at submit; cannot fail
	if err != nil {
		r.Notify(err)
		return
	}
	r.arrayID = ext.arr.id
	e.v.clk.InitFuture(&r.arr)
	if r.kind == opRead {
		ext.arr.vol.SubmitReadTo(&r.arr, arrLBA, r.data)
	} else {
		ext.arr.vol.SubmitWriteTo(&r.arr, arrLBA, r.data, r.flags)
	}
	r.arr.SubscribeNotifier(r)
}

// completeRun resolves a run's futures, feeds latency and per-array
// attribution accounting, and returns the run's slots to the in-flight
// window. arrayID names the array the run was issued against ("" when
// the run never reached an array).
func (e *engine) completeRun(run []*request, arrayID string, err error) {
	now := e.v.clk.Now()
	ss := int64(e.v.sectorSize)
	for _, r := range run {
		r.tn.lat.Record(now - r.submitT)
		if err != nil {
			r.tn.errored.Inc()
		} else {
			r.tn.completedOps.Inc()
			r.tn.completedBytes.Add(r.sectors * ss)
		}
		r.fut.Complete(err)
	}
	e.mu.Lock()
	if arrayID != "" {
		for _, r := range run {
			ag := r.tn.perArray[arrayID]
			if ag == nil {
				ag = &arrayAgg{}
				r.tn.perArray[arrayID] = ag
			}
			ag.ops++
			ag.latSum += now - r.submitT
			if err != nil {
				ag.errs++
			}
		}
	}
	e.inflight -= len(run)
	idle := e.inflight == 0
	// Only queued work (or a close) needs the dispatcher: an idle volume's
	// completions leave it parked.
	wake := e.queued > 0 || e.closed
	e.mu.Unlock()
	if wake {
		e.work.Signal()
	}
	if idle {
		e.idle.Broadcast()
	}
}

// drainInflight parks the caller until the in-flight window is
// momentarily empty. Queued-but-unissued requests are not waited for:
// a flush orders against IO that has been issued, nothing more.
func (e *engine) drainInflight() {
	e.mu.Lock()
	for e.inflight > 0 {
		e.idle.Wait()
	}
	e.mu.Unlock()
}

// close stops admissions, lets everything already accepted complete,
// and waits for the dispatcher to exit. Idempotent.
func (e *engine) close() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.work.Signal()
	e.mu.Lock()
	for !e.done {
		e.idle.Wait()
	}
	e.mu.Unlock()
}

// ArrayAttribution summarizes one tenant's completions against one
// hosted array — the evidence an incident report uses to rank arrays.
type ArrayAttribution struct {
	Array   string
	Ops     int64
	Errors  int64
	MeanLat time.Duration
}

// tenantArrayAttribution ranks the arrays a tenant's completions landed
// on, most-implicated first: errors, then mean latency, then traffic
// volume, with array id as the final tiebreak so the order is
// deterministic run to run.
func (e *engine) tenantArrayAttribution(tid string) []ArrayAttribution {
	e.mu.Lock()
	defer e.mu.Unlock()
	t := e.tenants[tid]
	if t == nil {
		return nil
	}
	out := make([]ArrayAttribution, 0, len(t.perArray))
	for id, ag := range t.perArray {
		a := ArrayAttribution{Array: id, Ops: ag.ops, Errors: ag.errs}
		if ag.ops > 0 {
			a.MeanLat = ag.latSum / time.Duration(ag.ops)
		}
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Errors != out[j].Errors {
			return out[i].Errors > out[j].Errors
		}
		if out[i].MeanLat != out[j].MeanLat {
			return out[i].MeanLat > out[j].MeanLat
		}
		if out[i].Ops != out[j].Ops {
			return out[i].Ops > out[j].Ops
		}
		return out[i].Array < out[j].Array
	})
	return out
}

// tenantStats snapshots every tenant's counters in registration order.
func (e *engine) tenantStats() []TenantStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]TenantStats, 0, len(e.order))
	for _, id := range e.order {
		t := e.tenants[id]
		out = append(out, TenantStats{
			ID:             id,
			Weight:         t.cfg.Weight,
			Accepted:       t.accepted.Load(),
			Shed:           t.shed.Load(),
			CompletedOps:   t.completedOps.Load(),
			CompletedBytes: t.completedBytes.Load(),
			Errored:        t.errored.Load(),
			Latency:        t.lat.Snapshot(),
			QueueDelay:     t.queueDelay.Snapshot(),
		})
	}
	return out
}

// TenantStats snapshots the volume's per-tenant counters in tenant
// registration order.
func (v *Volume) TenantStats() []TenantStats { return v.eng.tenantStats() }
