// Package vclock implements a deterministic virtual-time scheduler for
// discrete-event simulation of storage systems.
//
// Simulated code runs on ordinary goroutines that are registered with a
// Clock. Whenever every registered goroutine is blocked in one of the
// package's primitives (Sleep, Future.Wait, Cond.Wait, WaitGroup.Wait),
// virtual time advances to the next pending timer event and the goroutine
// owning that event resumes. Real time never passes inside a simulation:
// the host CPU only bounds how fast the simulation executes, never what it
// measures.
//
// Rules for simulated code:
//
//   - Only goroutines started via Clock.Run, Clock.Go, or Clock.AfterFunc
//     may call blocking primitives.
//   - Never block in a vclock primitive while holding a sync.Mutex that a
//     peer needs in order to make progress; release locks before waiting
//     (Cond handles the common monitor pattern).
//   - Cross-goroutine signalling must use Future, Cond or WaitGroup, never
//     bare channels, or the scheduler's idle detection deadlocks.
//
// If every registered goroutine is parked and no timer is pending, the
// simulation can never progress; the Clock panics with a diagnostic rather
// than hanging.
package vclock

import (
	"container/heap"
	"fmt"
	"sync"
	"time"
)

// Clock is a virtual-time event scheduler. The zero value is not usable;
// call New.
type Clock struct {
	mu      sync.Mutex
	now     time.Duration // virtual time since simulation start
	running int           // registered goroutines currently runnable
	parked  int           // goroutines blocked on Future/Cond/WaitGroup
	events  eventHeap     // pending timer events
	seq     uint64        // FIFO tie-break for simultaneous events
	dead    bool          // set after a deadlock panic to stop re-dispatching
}

type event struct {
	at  time.Duration
	seq uint64
	ch  chan struct{} // closed to resume the sleeping goroutine
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// New returns a Clock whose virtual time starts at zero.
func New() *Clock { return &Clock{} }

// Now returns the current virtual time as an offset from simulation start.
func (c *Clock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

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

// AfterFunc runs fn on a new registered goroutine after d of virtual time.
func (c *Clock) AfterFunc(d time.Duration, fn func()) {
	c.Go(func() {
		c.Sleep(d)
		fn()
	})
}

// Sleep suspends the calling registered goroutine for d of virtual time.
// Non-positive durations yield without advancing time.
func (c *Clock) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	ch := make(chan struct{})
	c.mu.Lock()
	heap.Push(&c.events, &event{at: c.now + d, seq: c.seq, ch: ch})
	c.seq++
	c.running--
	c.dispatchLocked()
	c.mu.Unlock()
	<-ch
}

// exit deregisters the calling goroutine.
func (c *Clock) exit() {
	c.mu.Lock()
	c.running--
	c.dispatchLocked()
	c.mu.Unlock()
}

// park blocks the calling registered goroutine until ch is closed by a
// peer (via unpark). It must be called without holding c.mu.
func (c *Clock) park(ch chan struct{}) {
	c.mu.Lock()
	c.running--
	c.parked++
	c.dispatchLocked()
	c.mu.Unlock()
	<-ch
}

// unpark marks n parked goroutines runnable again. The caller is
// responsible for closing their channels afterwards.
func (c *Clock) unpark(n int) {
	if n == 0 {
		return
	}
	c.mu.Lock()
	c.parked -= n
	c.running += n
	c.mu.Unlock()
}

// dispatchLocked advances virtual time while no goroutine is runnable.
// Caller holds c.mu.
func (c *Clock) dispatchLocked() {
	for c.running == 0 && !c.dead {
		if c.events.Len() == 0 {
			if c.parked > 0 {
				c.dead = true
				msg := fmt.Sprintf("vclock: deadlock: %d goroutine(s) parked at t=%v with no pending events", c.parked, c.now)
				c.mu.Unlock() // release so unwinding through exit() cannot self-deadlock
				panic(msg)
			}
			return // simulation idle with nothing registered
		}
		ev := heap.Pop(&c.events).(*event)
		if ev.at > c.now {
			c.now = ev.at
		}
		c.running++
		close(ev.ch)
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
	chs  []chan struct{}
	cbs  []func(error)
}

// NewFuture returns an incomplete Future bound to the clock.
func (c *Clock) NewFuture() *Future { return &Future{c: c} }

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
	chs := f.chs
	f.chs = nil
	cbs := f.cbs
	f.cbs = nil
	f.mu.Unlock()
	f.c.unpark(len(chs))
	for _, ch := range chs {
		close(ch)
	}
	for _, cb := range cbs {
		cb(err)
	}
}

// Subscribe registers fn to run when the future completes, without
// parking a goroutine on it. If the future is already complete, fn runs
// inline. Otherwise fn runs on the completing goroutine (a registered
// simulated goroutine), after waiters have been woken; fn must not block
// in vclock primitives and must not complete this same future.
func (f *Future) Subscribe(fn func(error)) {
	f.mu.Lock()
	if f.done {
		err := f.err
		f.mu.Unlock()
		fn(err)
		return
	}
	f.cbs = append(f.cbs, fn)
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
	ch := make(chan struct{})
	f.chs = append(f.chs, ch)
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
	ch := make(chan struct{})
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
			close(ch)
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
		close(ch)
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
		close(ch)
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
	ch := make(chan struct{})
	w.chs = append(w.chs, ch)
	w.mu.Unlock()
	w.c.park(ch)
}
