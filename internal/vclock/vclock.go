// Package vclock implements a deterministic virtual-time scheduler for
// discrete-event simulation of storage systems.
//
// Simulated goroutines are coroutines that one driver loop runs, one at a
// time: the loop runs on Run's caller. Whenever no simulated goroutine is
// runnable — every one is blocked in one of the package's primitives
// (Sleep, Future.Wait, Cond.Wait, WaitGroup.Wait) — the driver advances
// virtual time to the next pending timer event. Real time never passes
// inside a simulation: the host CPU only bounds how fast the simulation
// executes, never what it measures.
//
// Three kinds of code run under a Clock:
//
//   - Simulated goroutines, started via Clock.Run or Clock.Go. Only they
//     may call the blocking primitives. A blocking call hands control
//     straight back to the driver; nothing goes through the Go scheduler.
//   - Timer callbacks, scheduled by Clock.AfterNotify (a Notifier, which
//     the clock calls with a nil error), Clock.AfterFunc (a func, the same
//     event wrapped) and Future.CompleteAfter. A callback has no goroutine
//     of its own: the driver runs it, between simulated goroutines. Events
//     due at one instant — sleepers and callbacks alike — are taken in
//     submission order.
//   - Subscribe callbacks (and Notifiers), run by whoever completes the
//     Future: a simulated goroutine, a timer callback, or another Subscribe
//     callback.
//
// The FIFO rule. A wake-up (Future.Complete, Cond.Signal and Broadcast,
// WaitGroup.Done, a sleeper's instant, Go) appends the goroutine to one run
// queue, and the driver runs that queue in order, each goroutine until it
// blocks or returns. It takes the next timer event only when the queue is
// empty. Goroutines made runnable at one instant therefore run in the order
// they were woken, and a simulation that starts from the same state takes
// the same steps on any number of cores.
//
// Rules for simulated code:
//
//   - Timer and Subscribe callbacks must not block in a vclock primitive:
//     there is no goroutine of theirs to suspend. A blocking call from one
//     panics. They may lock mutexes, complete futures, signal, and call Go
//     or AfterFunc; work that has to wait says Go(func() { Sleep(d); ... }).
//   - Never block in a vclock primitive while holding a sync.Mutex: only
//     one simulated goroutine runs at a time, so a peer that then needs it
//     stops the whole simulation. Release locks before waiting (Cond
//     handles the common monitor pattern).
//   - Cross-goroutine signalling must use Future, Cond or WaitGroup, never
//     bare channels, or the driver stops with the receiver.
//   - A Future completes once. Its owner may Rearm a completed future for
//     another operation only once nothing can still Wait on it or Subscribe
//     to it: every waiter has returned and every subscriber has been run.
//
// If every simulated goroutine is parked and no timer is pending, the
// simulation can never progress; the Clock panics with a diagnostic rather
// than hanging. A panic or runtime.Goexit (t.FailNow) in a simulated
// goroutine or a callback unwinds out of the driver, so out of Run.
package vclock

import (
	"fmt"
	"iter"
	"sync"
	"sync/atomic"
	"time"
)

// Clock is a virtual-time event scheduler. The zero value is not usable;
// call New.
type Clock struct {
	mu       sync.Mutex
	now      atomic.Int64 // virtual time since simulation start; written under mu
	events   []event      // pending timer events: a min-heap on (at, seq)
	seq      uint64       // FIFO tie-break for simultaneous events
	runq     []*task      // runnable goroutines in wake order, from runq[head]
	head     int
	parked   int           // goroutines blocked on Future/Cond/WaitGroup
	cur      *task         // the goroutine the driver is running; nil between them and in timer callbacks
	driving  bool          // a driver loop owns the clock
	detached bool          // ... and runs on a goroutine of the clock's own
	takeover chan struct{} // a Run caller waiting for a detached driver to hand over
	idle     []*task       // coroutines whose fn has returned, each waiting for the next Go
}

// event is one pending timer: a sleeping goroutine (t) or a callback (n).
type event struct {
	at  time.Duration
	seq uint64
	t   *task    // the sleeper, made runnable
	n   Notifier // notified by the driver
}

func (e *event) before(o *event) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// task is one simulated goroutine: a coroutine the driver resumes with next.
// It suspends itself by yielding how it blocked — parked, or asleep for the
// duration yielded — or that fn has returned.
type task struct {
	next  func() (time.Duration, bool)
	yield func(time.Duration) bool
	stop  func()
	fn    func()
	inCB  int // Subscribe callbacks it is running
}

const (
	parkedTask time.Duration = -1
	doneTask   time.Duration = -2
)

// taskLocked returns a task to run fn: a coroutine from c.idle, or a new
// one. Caller holds c.mu.
func (c *Clock) taskLocked(fn func()) *task {
	var t *task
	if n := len(c.idle); n > 0 {
		t = c.idle[n-1]
		c.idle[n-1] = nil
		c.idle = c.idle[:n-1]
	} else {
		t = &task{}
		t.next, t.stop = iter.Pull(t.loop)
	}
	t.fn = fn
	return t
}

// loop is the coroutine's body: run fn, report it done, wait for the next.
func (t *task) loop(yield func(time.Duration) bool) {
	t.yield = yield
	for {
		t.fn()
		t.fn = nil
		if !yield(doneTask) {
			return
		}
	}
}

// pushLocked queues an event d from now (non-positive: at this instant,
// behind those already queued for it). Caller holds c.mu.
func (c *Clock) pushLocked(d time.Duration, t *task, n Notifier) {
	if d < 0 {
		d = 0
	}
	h := append(c.events, event{at: time.Duration(c.now.Load()) + d, seq: c.seq, t: t, n: n})
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

// popRunLocked takes the next runnable goroutine, or nil. Caller holds c.mu.
func (c *Clock) popRunLocked() *task {
	if c.head == len(c.runq) {
		return nil
	}
	t := c.runq[c.head]
	c.runq[c.head] = nil
	if c.head++; c.head == len(c.runq) {
		c.runq, c.head = c.runq[:0], 0
	}
	return t
}

// New returns a Clock whose virtual time starts at zero.
func New() *Clock { return &Clock{} }

// Now returns the current virtual time as an offset from simulation start.
// It takes no lock.
func (c *Clock) Now() time.Duration { return time.Duration(c.now.Load()) }

// Run executes fn as a simulated goroutine and returns when fn returns,
// driving the simulation on the calling goroutine until then. If work is
// left — goroutines still runnable or timers pending — a fresh goroutine
// of the clock's own goes on driving it, and a later Run takes over from
// that one. Called from a simulated goroutine of the same clock, Run runs
// fn inline, as part of the caller. Run must not be called from two
// plain goroutines at once, nor from a goroutine left running after its
// Run returned.
func (c *Clock) Run(fn func()) {
	c.mu.Lock()
	if c.driving && !c.detached {
		c.mu.Unlock()
		fn()
		return
	}
	for c.driving {
		if c.takeover == nil {
			c.takeover = make(chan struct{})
		}
		ch := c.takeover
		c.mu.Unlock()
		<-ch
		c.mu.Lock()
	}
	root := c.taskLocked(fn)
	c.runq = append(c.runq, root)
	c.driving = true
	c.drive(root)
}

// Go starts fn as a new simulated goroutine, runnable behind those already
// queued. It may be called from simulated or non-simulated code.
func (c *Clock) Go(fn func()) {
	c.mu.Lock()
	c.runq = append(c.runq, c.taskLocked(fn))
	c.startLocked()
	c.mu.Unlock()
}

// startLocked starts a detached driver if nobody drives the clock: work
// queued from plain code on an idle clock must still run, and not on the
// caller's stack. Caller holds c.mu.
func (c *Clock) startLocked() {
	if !c.driving {
		c.driving, c.detached = true, true
		go c.driveDetached()
	}
}

// drive is the driver loop: it runs the next runnable goroutine while
// there is one, and otherwise takes the next event, advancing virtual
// time to it. It returns once root has returned or, for a detached driver
// (root nil), once the clock is idle or a Run caller asks to take over.
// Work left behind root moves to a detached driver. A goroutine that
// returns leaves its coroutine in c.idle for the next Go. A panic or
// Goexit from a goroutine or a callback unwinds through here and leaves
// the clock undriven. Caller holds c.mu and has set c.driving; drive
// releases c.mu.
func (c *Clock) drive(root *task) {
	clean := false
	defer func() {
		if !clean {
			c.mu.Lock()
			c.cur = nil
			c.releaseLocked()
			c.mu.Unlock()
		}
	}()
	rootDone := false
	for !(rootDone || root == nil && c.takeover != nil) {
		if t := c.popRunLocked(); t != nil {
			c.cur = t
			c.mu.Unlock()
			d, _ := t.next()
			c.mu.Lock()
			c.cur = nil
			switch d {
			case doneTask:
				if t == root {
					rootDone = true
				}
				c.idle = append(c.idle, t)
			case parkedTask:
				c.parked++
			default:
				c.pushLocked(d, t, nil)
			}
			continue
		}
		if len(c.events) == 0 {
			if c.parked > 0 {
				c.deadlockLocked()
			}
			break
		}
		ev := c.popLocked()
		if int64(ev.at) > c.now.Load() {
			c.now.Store(int64(ev.at))
		}
		if ev.t != nil {
			c.runq = append(c.runq, ev.t)
			continue
		}
		c.mu.Unlock()
		ev.n.Notify(nil)
		c.mu.Lock()
	}
	switch {
	case root != nil && (c.head < len(c.runq) || len(c.events) > 0):
		c.detached = true
		go c.driveDetached()
	case root != nil && c.parked > 0:
		c.deadlockLocked()
	default:
		if c.takeover == nil {
			// Idle: end the coroutines kept for Go, which a clock
			// nobody drives again would otherwise leak.
			for _, t := range c.idle {
				t.stop()
			}
			clear(c.idle)
			c.idle = c.idle[:0]
		}
		c.releaseLocked()
	}
	clean = true
	c.mu.Unlock()
}

// driveDetached drives the clock from a goroutine of its own.
func (c *Clock) driveDetached() {
	c.mu.Lock()
	c.drive(nil)
}

// deadlockLocked panics: goroutines are parked and nothing is left that
// could wake them. Caller holds c.mu, which is released first.
func (c *Clock) deadlockLocked() {
	msg := fmt.Sprintf("vclock: deadlock: %d goroutine(s) parked at t=%v with no pending events", c.parked, c.Now())
	c.mu.Unlock()
	panic(msg)
}

// releaseLocked ends the current driver's ownership, waking a Run caller
// that waits to take over. Caller holds c.mu.
func (c *Clock) releaseLocked() {
	c.driving, c.detached = false, false
	if c.takeover != nil {
		close(c.takeover)
		c.takeover = nil
	}
}

// current returns the simulated goroutine making a blocking call: only the
// goroutine the driver is running can be making one, and not from inside a
// callback. Otherwise it unlocks held, the caller's lock if any, and
// panics.
func (c *Clock) current(held *sync.Mutex) *task {
	t := c.cur
	if t == nil || t.inCB > 0 {
		if held != nil {
			held.Unlock()
		}
		panic("vclock: blocking call from a timer or Subscribe callback, or outside a simulated goroutine")
	}
	return t
}

// park suspends t, the calling goroutine, until a wake makes it runnable.
// The caller has listed t where the waker will find it.
func (t *task) park() { t.yield(parkedTask) }

// wake makes parked goroutines runnable, in order: first, then rest.
func (c *Clock) wake(first *task, rest []*task) {
	c.mu.Lock()
	c.parked -= 1 + len(rest)
	c.runq = append(c.runq, first)
	c.runq = append(c.runq, rest...)
	c.mu.Unlock()
}

// AfterFunc schedules fn to run after d of virtual time; it is AfterNotify
// with fn as the Notifier.
func (c *Clock) AfterFunc(d time.Duration, fn func()) { c.AfterNotify(d, timerFunc(fn)) }

// timerFunc adapts an AfterFunc callback. Like funcNotifier, the
// conversion to Notifier does not allocate.
type timerFunc func()

func (fn timerFunc) Notify(error) { fn() }

// AfterNotify schedules n.Notify(nil) to run after d of virtual time, with
// no goroutine and, for a Notifier the caller keeps, no allocation: the
// driver calls it (see the package comment), so it must not block in a
// vclock primitive. It may be called from simulated or non-simulated code,
// and never runs n on the caller's stack.
func (c *Clock) AfterNotify(d time.Duration, n Notifier) {
	c.mu.Lock()
	c.pushLocked(d, nil, n)
	c.startLocked()
	c.mu.Unlock()
}

// Sleep suspends the calling simulated goroutine for d of virtual time.
// Non-positive durations yield without advancing time: the goroutine runs
// again behind the events already due now.
func (c *Clock) Sleep(d time.Duration) {
	c.current(nil).yield(max(d, 0))
}

// Future is a one-shot completion. It is created by NewFuture, completed
// exactly once by Complete or CompleteAfter, and waited on by any number
// of simulated goroutines.
type Future struct {
	c    *Clock
	mu   sync.Mutex
	done bool
	err  error
	w    *task    // first waiter, held inline: the usual count is one
	ws   []*task  // the rest, in wait order
	cb   Notifier // first subscriber, held inline likewise
	cbs  []Notifier
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

// Rearm returns a completed future to the incomplete state for its owner's
// next operation; it panics unless the future is complete. The package
// comment says when it may be called: a waiter not yet returned would read
// the next operation's outcome.
func (f *Future) Rearm() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.done {
		panic("vclock: Rearm of incomplete Future")
	}
	f.done, f.err = false, nil
}

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

// Complete resolves the future with err, making all waiters runnable in
// the order they began to wait, then running its subscribers in
// subscription order. Completing a future twice panics.
func (f *Future) Complete(err error) {
	f.mu.Lock()
	if f.done {
		f.mu.Unlock()
		panic("vclock: Future completed twice")
	}
	f.done = true
	f.err = err
	w, ws := f.w, f.ws
	f.w, f.ws = nil, nil
	cb, cbs := f.cb, f.cbs
	f.cb, f.cbs = nil, nil
	f.mu.Unlock()
	if w != nil {
		f.c.wake(w, ws)
	}
	if cb != nil {
		f.c.notify(cb, cbs, err)
	}
}

// notify runs Subscribe callbacks. While they run, the goroutine running
// them (if any: the driver runs timer callbacks on no goroutine) must not
// block.
func (c *Clock) notify(cb Notifier, cbs []Notifier, err error) {
	if t := c.cur; t != nil {
		t.inCB++
		defer func() { t.inCB-- }()
	}
	cb.Notify(err)
	for _, cb := range cbs {
		cb.Notify(err)
	}
}

// Subscribe registers fn to run when the future completes, without
// parking a goroutine on it. If the future is already complete, fn runs
// inline. Otherwise fn runs inside the Complete call — on a simulated
// goroutine or in a timer callback — after waiters have been made
// runnable; fn must not block in vclock primitives and must not complete
// this same future.
func (f *Future) Subscribe(fn func(error)) { f.SubscribeNotifier(funcNotifier(fn)) }

// SubscribeNotifier is Subscribe for a Notifier: n.Notify runs where fn
// would.
func (f *Future) SubscribeNotifier(n Notifier) {
	f.mu.Lock()
	if f.done {
		err := f.err
		f.mu.Unlock()
		f.c.notify(n, nil, err)
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

// Wait blocks the calling simulated goroutine until the future completes
// and returns its error.
func (f *Future) Wait() error {
	f.mu.Lock()
	if f.done {
		err := f.err
		f.mu.Unlock()
		return err
	}
	t := f.c.current(&f.mu)
	if f.w == nil {
		f.w = t
	} else {
		f.ws = append(f.ws, t)
	}
	f.mu.Unlock()
	t.park()
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
	c  *Clock
	L  sync.Locker
	mu sync.Mutex
	ws []*task
}

// NewCond returns a Cond that uses l as its monitor lock.
func (c *Clock) NewCond(l sync.Locker) *Cond { return &Cond{c: c, L: l} }

// Wait atomically unlocks the monitor and parks until Broadcast or Signal,
// then relocks before returning. As with sync.Cond, callers must re-check
// their predicate in a loop.
func (cv *Cond) Wait() {
	cv.mu.Lock()
	t := cv.c.current(&cv.mu)
	cv.ws = append(cv.ws, t)
	cv.mu.Unlock()
	cv.L.Unlock()
	t.park()
	cv.L.Lock()
}

// Broadcast wakes all parked waiters, in the order they began to wait. The
// emptied waiter slice keeps its backing array, so a Cond in steady use
// stops allocating one per Wait.
func (cv *Cond) Broadcast() {
	cv.mu.Lock()
	if n := len(cv.ws); n > 0 {
		cv.c.wake(cv.ws[0], cv.ws[1:])
		clear(cv.ws)
		cv.ws = cv.ws[:0]
	}
	cv.mu.Unlock()
}

// Signal wakes the longest-parked waiter, if any.
func (cv *Cond) Signal() {
	cv.mu.Lock()
	var t *task
	if n := len(cv.ws); n > 0 {
		t = cv.ws[0]
		// Copy down rather than re-slice, so the backing array's capacity
		// is kept for later waiters.
		copy(cv.ws, cv.ws[1:])
		cv.ws[n-1] = nil
		cv.ws = cv.ws[:n-1]
	}
	cv.mu.Unlock()
	if t != nil {
		cv.c.wake(t, nil)
	}
}

// WaitGroup is a virtual-time analog of sync.WaitGroup.
type WaitGroup struct {
	c  *Clock
	mu sync.Mutex
	n  int
	ws []*task
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
	var ws []*task
	if w.n == 0 {
		ws = w.ws
		w.ws = nil
	}
	w.mu.Unlock()
	if len(ws) > 0 {
		w.c.wake(ws[0], ws[1:])
	}
}

// Done decrements the counter by one.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait parks the calling simulated goroutine until the counter is zero.
func (w *WaitGroup) Wait() {
	w.mu.Lock()
	if w.n == 0 {
		w.mu.Unlock()
		return
	}
	t := w.c.current(&w.mu)
	w.ws = append(w.ws, t)
	w.mu.Unlock()
	t.park()
}
