// Package vclock implements a deterministic virtual-time scheduler for
// discrete-event simulation of storage systems.
//
// Simulated code runs on ordinary goroutines that are registered with a
// Clock. Whenever every registered goroutine is blocked in one of the
// package's primitives (Sleep, Future.Wait, Cond.Wait, WaitGroup.Wait),
// virtual time advances to the next pending timer event. Real time never
// passes inside a simulation: the host CPU only bounds how fast the
// simulation executes, never what it measures.
//
// Three kinds of code run under a Clock:
//
//   - Simulated goroutines, started via Clock.Run or Clock.Go. Only they
//     may call the blocking primitives.
//   - Timer callbacks, scheduled by Clock.AfterFunc (and
//     Future.CompleteAfter). A callback has no goroutine of its own: the
//     registered goroutine whose blocking call advances the clock to the
//     callback's instant runs it inline, from inside that call, and counts
//     as running while it does. Events due at one instant — sleepers and
//     callbacks alike — are taken in submission order.
//   - Subscribe callbacks (and Notifiers), run by whoever completes the
//     Future: a simulated goroutine, a timer callback, or another Subscribe
//     callback.
//
// Rules for simulated code:
//
//   - Timer and Subscribe callbacks must not block in a vclock primitive:
//     the goroutine running one is already inside a blocking call of its
//     own. They may lock mutexes, complete futures, signal, and call Go or
//     AfterFunc; work that has to wait says Go(func() { Sleep(d); ... }).
//   - Never block in a vclock primitive while holding a sync.Mutex: a peer
//     that needs it stays counted as running, so the clock cannot advance
//     to wake the holder, and a callback that needs it may be run by the
//     holder itself. Release locks before waiting (Cond handles the common
//     monitor pattern).
//   - Cross-goroutine signalling must use Future, Cond or WaitGroup, never
//     bare channels, or the scheduler's idle detection deadlocks.
//
// If every registered goroutine is parked and no timer is pending, the
// simulation can never progress; the Clock panics with a diagnostic rather
// than hanging.
//
// What is not deterministic: goroutines made runnable at one virtual
// instant (several waiters of one future, a sleeper woken beside a
// goroutine started by a callback) run in parallel, so their order at
// that instant is the host scheduler's.
package vclock

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Clock is a virtual-time event scheduler. The zero value is not usable;
// call New.
type Clock struct {
	mu      sync.Mutex
	now     atomic.Int64 // virtual time since simulation start; written under mu
	running int          // registered goroutines currently runnable, plus a callback being run
	parked  int          // goroutines blocked on Future/Cond/WaitGroup
	events  []event      // pending timer events: a min-heap on (at, seq)
	seq     uint64       // FIFO tie-break for simultaneous events
	dead    bool         // set after a deadlock panic to stop re-dispatching
}

// event is one pending timer: a sleeping goroutine (ch) or a callback (fn).
type event struct {
	at  time.Duration
	seq uint64
	ch  chan struct{} // park channel of the sleeping goroutine (wake)
	fn  func()        // run inline by the dispatching goroutine
}

func (e *event) before(o *event) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// pushLocked queues an event d from now (non-positive: at this instant,
// behind those already queued for it). Caller holds c.mu.
func (c *Clock) pushLocked(d time.Duration, ch chan struct{}, fn func()) {
	if d < 0 {
		d = 0
	}
	h := append(c.events, event{at: time.Duration(c.now.Load()) + d, seq: c.seq, ch: ch, fn: fn})
	c.seq++
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].before(&h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	c.events = h
}

// popLocked removes and returns the earliest event. Caller holds c.mu.
func (c *Clock) popLocked() event {
	h := c.events
	n := len(h) - 1
	ev := h[0]
	h[0], h[n] = h[n], event{}
	h = h[:n]
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && h[r].before(&h[l]) {
			l = r
		}
		if !h[l].before(&h[i]) {
			break
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
	c.events = h
	return ev
}

// New returns a Clock whose virtual time starts at zero.
func New() *Clock { return &Clock{} }

// Now returns the current virtual time as an offset from simulation start.
// It takes no lock.
func (c *Clock) Now() time.Duration { return time.Duration(c.now.Load()) }

// Run executes fn on the calling goroutine as a registered simulated
// goroutine and returns when fn returns. Other registered goroutines may
// still be live afterwards; they continue to be scheduled by whichever
// registered goroutines remain.
func (c *Clock) Run(fn func()) {
	c.mu.Lock()
	c.running++
	c.mu.Unlock()
	defer c.exit()
	fn()
}

// Go starts fn on a new registered goroutine. It may be called from
// simulated or non-simulated code.
func (c *Clock) Go(fn func()) {
	c.mu.Lock()
	c.running++
	c.mu.Unlock()
	go func() {
		defer c.exit()
		fn()
	}()
}

// AfterFunc schedules fn to run after d of virtual time. fn gets no
// goroutine: the registered goroutine that advances the clock to that
// instant calls it (see the package comment), so fn must not block in a
// vclock primitive. It may be called from simulated or non-simulated code,
// and never runs fn on the caller's stack.
func (c *Clock) AfterFunc(d time.Duration, fn func()) {
	c.mu.Lock()
	c.pushLocked(d, nil, fn)
	if c.running == 0 {
		// Idle clock, unregistered caller: nobody is left to reach
		// dispatch, so register a goroutine that does nothing but exit.
		c.running++
		go c.exit()
	}
	c.mu.Unlock()
}

// Sleep suspends the calling registered goroutine for d of virtual time.
// Non-positive durations yield without advancing time.
func (c *Clock) Sleep(d time.Duration) {
	ch := parkChan()
	c.mu.Lock()
	c.pushLocked(d, ch, nil)
	c.running--
	c.dispatchLocked()
	c.mu.Unlock()
	await(ch)
}

// exit deregisters the calling goroutine.
func (c *Clock) exit() {
	c.mu.Lock()
	c.running--
	c.dispatchLocked()
	c.mu.Unlock()
}

// Park channels. Every blocking primitive parks its goroutine on a channel
// that carries exactly one wake-up: the waker sends on it (wake) and the
// woken goroutine hands it back to parkChans (await), so a channel serves
// one park/unpark pair at a time and a steady stream of waits allocates
// none. Buffered, so the waker never blocks.
var parkChans = sync.Pool{New: func() any { return make(chan struct{}, 1) }}

func parkChan() chan struct{} { return parkChans.Get().(chan struct{}) }

// wake resumes the goroutine parked on ch. Nothing may touch ch after.
func wake(ch chan struct{}) { ch <- struct{}{} }

// await blocks until ch is woken, then recycles it.
func await(ch chan struct{}) {
	<-ch
	parkChans.Put(ch)
}

// park blocks the calling registered goroutine until a peer wakes ch (via
// unpark, then wake). It must be called without holding c.mu.
func (c *Clock) park(ch chan struct{}) {
	c.mu.Lock()
	c.running--
	c.parked++
	c.dispatchLocked()
	c.mu.Unlock()
	await(ch)
}

// unpark marks n parked goroutines runnable again. The caller is
// responsible for waking their channels afterwards.
func (c *Clock) unpark(n int) {
	if n == 0 {
		return
	}
	c.mu.Lock()
	c.parked -= n
	c.running += n
	c.mu.Unlock()
}

// dispatchLocked advances virtual time while no goroutine is runnable:
// it wakes the next sleeper, or runs the next callback itself with c.mu
// released. A callback counts as running, so peers it wakes cannot move
// the clock under it; one that panics unwinds through here with c.mu
// free. Caller holds c.mu, and holds it again on return.
func (c *Clock) dispatchLocked() {
	for c.running == 0 && !c.dead {
		if len(c.events) == 0 {
			if c.parked > 0 {
				c.dead = true
				msg := fmt.Sprintf("vclock: deadlock: %d goroutine(s) parked at t=%v with no pending events", c.parked, c.Now())
				c.mu.Unlock() // release so unwinding through exit() cannot self-deadlock
				panic(msg)
			}
			return // simulation idle with nothing registered
		}
		ev := c.popLocked()
		if int64(ev.at) > c.now.Load() {
			c.now.Store(int64(ev.at))
		}
		c.running++
		if ev.fn == nil {
			wake(ev.ch)
			continue
		}
		c.mu.Unlock()
		ev.fn()
		c.mu.Lock()
		c.running--
	}
}

// Future is a one-shot completion. It is created by NewFuture, completed
// exactly once by Complete or CompleteAfter, and waited on by any number
// of registered goroutines.
type Future struct {
	c    *Clock
	mu   sync.Mutex
	done bool
	err  error
	ch   chan struct{}   // first waiter, held inline: the usual count is one
	chs  []chan struct{} // the rest
	cb   Notifier        // first subscriber, held inline likewise
	cbs  []Notifier      // the rest, in subscription order
}

// Notifier is a subscriber that needs no closure: a pointer to a struct
// with a Notify method subscribes through SubscribeNotifier without
// allocating, where Subscribe(func...) usually allocates the func value.
// Notify runs under the same rules as a Subscribe callback.
type Notifier interface{ Notify(err error) }

// funcNotifier adapts a Subscribe callback. A func value is pointer
// shaped, so the conversion to Notifier does not allocate.
type funcNotifier func(error)

func (fn funcNotifier) Notify(err error) { fn(err) }

// NewFuture returns an incomplete Future bound to the clock.
func (c *Clock) NewFuture() *Future { return &Future{c: c} }

// InitFuture binds a zero Future held by value — inside a larger struct,
// so that the future costs no allocation of its own — to the clock. It is
// then an incomplete future like one from NewFuture.
func (c *Clock) InitFuture(f *Future) { f.c = c }

// NewFutureSlab returns n incomplete Futures allocated in one block,
// amortizing allocation across a batch of commands (use &slab[i]).
// Slab futures must never be reused: like any Future they complete
// exactly once and may be referenced by waiters afterwards.
func (c *Clock) NewFutureSlab(n int) []Future {
	slab := make([]Future, n)
	for i := range slab {
		slab[i].c = c
	}
	return slab
}

// Done reports whether the future has completed.
func (f *Future) Done() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.done
}

// Err returns the completion error. It must only be called after the
// future is known to be complete.
func (f *Future) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.done {
		panic("vclock: Err on incomplete Future")
	}
	return f.err
}

// Complete resolves the future with err, waking all waiters. Completing a
// future twice panics.
func (f *Future) Complete(err error) {
	f.mu.Lock()
	if f.done {
		f.mu.Unlock()
		panic("vclock: Future completed twice")
	}
	f.done = true
	f.err = err
	ch, chs := f.ch, f.chs
	f.ch, f.chs = nil, nil
	cb, cbs := f.cb, f.cbs
	f.cb, f.cbs = nil, nil
	f.mu.Unlock()
	if ch != nil {
		f.c.unpark(1 + len(chs))
		wake(ch)
		for _, ch := range chs {
			wake(ch)
		}
	}
	if cb != nil {
		cb.Notify(err)
	}
	for _, cb := range cbs {
		cb.Notify(err)
	}
}

// Subscribe registers fn to run when the future completes, without
// parking a goroutine on it. If the future is already complete, fn runs
// inline. Otherwise fn runs inside the Complete call — on a simulated
// goroutine or in a timer callback — after waiters have been woken; fn
// must not block in vclock primitives and must not complete this same
// future.
func (f *Future) Subscribe(fn func(error)) { f.SubscribeNotifier(funcNotifier(fn)) }

// SubscribeNotifier is Subscribe for a Notifier: n.Notify runs where fn
// would.
func (f *Future) SubscribeNotifier(n Notifier) {
	f.mu.Lock()
	if f.done {
		err := f.err
		f.mu.Unlock()
		n.Notify(err)
		return
	}
	if f.cb == nil {
		f.cb = n
	} else {
		f.cbs = append(f.cbs, n)
	}
	f.mu.Unlock()
}

// CompleteAfter schedules the future to resolve with err after d of
// virtual time. It may be called from simulated or non-simulated code.
func (f *Future) CompleteAfter(d time.Duration, err error) {
	f.c.AfterFunc(d, func() { f.Complete(err) })
}

// Wait blocks the calling registered goroutine until the future completes
// and returns its error.
func (f *Future) Wait() error {
	f.mu.Lock()
	if f.done {
		err := f.err
		f.mu.Unlock()
		return err
	}
	ch := parkChan()
	if f.ch == nil {
		f.ch = ch
	} else {
		f.chs = append(f.chs, ch)
	}
	f.mu.Unlock()
	f.c.park(ch)
	f.mu.Lock()
	err := f.err
	f.mu.Unlock()
	return err
}

// Completed returns an already-resolved future, useful for fast paths that
// complete synchronously.
func (c *Clock) Completed(err error) *Future {
	return &Future{c: c, done: true, err: err}
}

// WaitAll waits for every future and returns the first non-nil error.
func WaitAll(futs ...*Future) error {
	var first error
	for _, f := range futs {
		if f == nil {
			continue
		}
		if err := f.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Cond is a virtual-time condition variable associated with a sync.Mutex
// monitor, mirroring sync.Cond semantics.
type Cond struct {
	c   *Clock
	L   sync.Locker
	mu  sync.Mutex
	chs []chan struct{}
}

// NewCond returns a Cond that uses l as its monitor lock.
func (c *Clock) NewCond(l sync.Locker) *Cond { return &Cond{c: c, L: l} }

// Wait atomically unlocks the monitor and parks until Broadcast or Signal,
// then relocks before returning. As with sync.Cond, callers must re-check
// their predicate in a loop.
func (cv *Cond) Wait() {
	ch := parkChan()
	cv.mu.Lock()
	cv.chs = append(cv.chs, ch)
	cv.mu.Unlock()
	cv.L.Unlock()
	cv.c.park(ch)
	cv.L.Lock()
}

// Broadcast wakes all parked waiters. The emptied waiter slice keeps its
// backing array, so a Cond in steady use stops allocating one per Wait.
func (cv *Cond) Broadcast() {
	cv.mu.Lock()
	if n := len(cv.chs); n > 0 {
		cv.c.unpark(n)
		for i, ch := range cv.chs {
			wake(ch)
			cv.chs[i] = nil
		}
		cv.chs = cv.chs[:0]
	}
	cv.mu.Unlock()
}

// Signal wakes one parked waiter, if any.
func (cv *Cond) Signal() {
	cv.mu.Lock()
	var ch chan struct{}
	if n := len(cv.chs); n > 0 {
		ch = cv.chs[0]
		// Copy down rather than re-slice, so the backing array's capacity
		// is kept for later waiters.
		copy(cv.chs, cv.chs[1:])
		cv.chs[n-1] = nil
		cv.chs = cv.chs[:n-1]
	}
	cv.mu.Unlock()
	if ch != nil {
		cv.c.unpark(1)
		wake(ch)
	}
}

// WaitGroup is a virtual-time analog of sync.WaitGroup.
type WaitGroup struct {
	c   *Clock
	mu  sync.Mutex
	n   int
	chs []chan struct{}
}

// NewWaitGroup returns an empty WaitGroup bound to the clock.
func (c *Clock) NewWaitGroup() *WaitGroup { return &WaitGroup{c: c} }

// Add adds delta to the counter. A counter that would go negative panics.
func (w *WaitGroup) Add(delta int) {
	w.mu.Lock()
	w.n += delta
	if w.n < 0 {
		w.mu.Unlock()
		panic("vclock: negative WaitGroup counter")
	}
	var chs []chan struct{}
	if w.n == 0 {
		chs = w.chs
		w.chs = nil
	}
	w.mu.Unlock()
	w.c.unpark(len(chs))
	for _, ch := range chs {
		wake(ch)
	}
}

// Done decrements the counter by one.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait parks the calling registered goroutine until the counter is zero.
func (w *WaitGroup) Wait() {
	w.mu.Lock()
	if w.n == 0 {
		w.mu.Unlock()
		return
	}
	ch := parkChan()
	w.chs = append(w.chs, ch)
	w.mu.Unlock()
	w.c.park(ch)
}
