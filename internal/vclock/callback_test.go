package vclock

import (
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// Timer callbacks (AfterFunc) have no goroutine: the registered goroutine
// that advances the clock runs them. These tests pin down what that
// promises — order, what a callback may do, who runs it on an idle clock,
// what a panic leaves behind, and what a timer costs.

var errTimer = errors.New("timer")

// TestSameInstantSubmissionOrder: callbacks and sleepers due at one instant
// are taken in the order they were submitted, whatever their kind, and an
// event a callback schedules for that same instant goes behind those
// already queued. Submission order is made certain by submitting from one
// goroutine at distinct earlier instants.
func TestSameInstantSubmissionOrder(t *testing.T) {
	c := New()
	var mu sync.Mutex
	var got []string
	rec := func(s string) {
		mu.Lock()
		got = append(got, s)
		mu.Unlock()
	}
	c.Run(func() {
		const at = 10 * time.Millisecond
		// A sleeper's event is queued when its goroutine reaches Sleep,
		// which it has by the time the clock can move on: the submitter
		// sleeps one tick after starting each.
		sleeper := func(name string) {
			d := at - c.Now()
			c.Go(func() {
				c.Sleep(d)
				rec(name)
			})
			c.Sleep(time.Millisecond)
		}
		c.AfterFunc(at-c.Now(), func() { rec("cb1") })
		sleeper("sleep1")
		c.AfterFunc(at-c.Now(), func() { rec("cb2") })
		sleeper("sleep2")
		c.AfterFunc(at-c.Now(), func() {
			rec("cb3")
			c.AfterFunc(0, func() { rec("cb3.child") })
		})
		c.AfterFunc(at-c.Now(), func() { rec("cb4") })
		c.Sleep(2 * at)
	})
	want := []string{"cb1", "sleep1", "cb2", "sleep2", "cb3", "cb4", "cb3.child"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("order at one instant:\n got %v\nwant %v", got, want)
	}
}

// TestCallbackCompletesDispatchersFuture: the only registered goroutine is
// parked on a future; it is therefore the one that runs the callback, which
// completes that very future.
func TestCallbackCompletesDispatchersFuture(t *testing.T) {
	c := New()
	c.Run(func() {
		f := c.NewFuture()
		c.AfterFunc(5*time.Millisecond, func() { f.Complete(errTimer) })
		if err := f.Wait(); err != errTimer {
			t.Errorf("Wait = %v, want errTimer", err)
		}
		if c.Now() != 5*time.Millisecond {
			t.Errorf("woke at %v, want 5ms", c.Now())
		}
		// And again through a sleeping dispatcher: the callback fires
		// first, at an instant before the sleeper's own.
		fired := time.Duration(-1)
		c.AfterFunc(time.Millisecond, func() { fired = c.Now() })
		c.Sleep(2 * time.Millisecond)
		if fired != 6*time.Millisecond || c.Now() != 7*time.Millisecond {
			t.Errorf("callback at %v, sleeper back at %v; want 6ms, 7ms", fired, c.Now())
		}
	})
}

// TestCallbackMayStartAndWake: a callback may call Go, AfterFunc,
// WaitGroup.Done and Cond.Signal — everything that does not block.
func TestCallbackMayStartAndWake(t *testing.T) {
	c := New()
	c.Run(func() {
		wg := c.NewWaitGroup()
		wg.Add(3)
		var mu sync.Mutex
		cv := c.NewCond(&mu)
		ready := false
		var goAt, timerAt time.Duration
		c.AfterFunc(time.Millisecond, func() {
			wg.Done()
			c.Go(func() {
				c.Sleep(time.Millisecond) // a goroutine, so it may block
				goAt = c.Now()
				wg.Done()
			})
			c.AfterFunc(3*time.Millisecond, func() {
				timerAt = c.Now()
				wg.Done()
			})
			mu.Lock()
			ready = true
			cv.Signal()
			mu.Unlock()
		})
		mu.Lock()
		for !ready {
			cv.Wait()
		}
		mu.Unlock()
		if c.Now() != time.Millisecond {
			t.Errorf("signalled at %v, want 1ms", c.Now())
		}
		wg.Wait()
		if goAt != 2*time.Millisecond || timerAt != 4*time.Millisecond {
			t.Errorf("Go body at %v, nested timer at %v; want 2ms, 4ms", goAt, timerAt)
		}
	})
}

// TestTimerOnIdleClockFires: with nothing registered, nobody is there to
// advance the clock; AfterFunc and CompleteAfter from plain code must fire
// all the same, and not on the caller's stack.
func TestTimerOnIdleClockFires(t *testing.T) {
	c := New()
	var mu sync.Mutex // held across the call: an inline callback would self-deadlock
	fired := make(chan time.Duration, 1)
	mu.Lock()
	c.AfterFunc(time.Second, func() {
		mu.Lock()
		mu.Unlock()
		fired <- c.Now()
	})
	mu.Unlock()
	select {
	case at := <-fired:
		if at != time.Second {
			t.Errorf("fired at %v, want 1s", at)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AfterFunc on an idle clock never fired")
	}

	f := c.NewFuture()
	f.CompleteAfter(time.Second, errTimer)
	c.Run(func() {
		if err := f.Wait(); err != errTimer {
			t.Errorf("Wait = %v, want errTimer", err)
		}
	})
	if c.Now() != 2*time.Second {
		t.Errorf("clock at %v, want 2s", c.Now())
	}
}

// TestDeadlockDetectionCountsParked: callbacks did not blunt the detector.
// Once the last timer has fired and woken nobody, N parked goroutines and
// an empty queue still panic, naming N — on the goroutine that ran that
// timer, here Run's, because the two others are parked before it sleeps.
func TestDeadlockDetectionCountsParked(t *testing.T) {
	c := New()
	done := make(chan interface{}, 1)
	go func() {
		defer func() { done <- recover() }()
		c.Run(func() {
			for i := 0; i < 2; i++ {
				c.Go(func() { c.NewFuture().Wait() })
			}
			c.Sleep(time.Millisecond) // returns once both are parked
			c.AfterFunc(time.Millisecond, func() {})
			c.NewFuture().Wait()
		})
	}()
	select {
	case r := <-done:
		const want = "vclock: deadlock: 3 goroutine(s) parked at t=2ms with no pending events"
		if r != want {
			t.Errorf("recovered %v, want %q", r, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("deadlock was not detected")
	}
}

// TestCallbackPanicPropagates: a panic in a callback unwinds through the
// blocking call of the goroutine that ran it, with the clock lock free.
func TestCallbackPanicPropagates(t *testing.T) {
	c := New()
	defer func() {
		if r := recover(); r != "boom" {
			t.Errorf("recovered %v, want boom", r)
		}
		if !c.mu.TryLock() {
			t.Fatal("clock lock still held after a callback panicked")
		}
		c.mu.Unlock()
	}()
	c.Run(func() {
		c.AfterFunc(time.Millisecond, func() { panic("boom") })
		c.Sleep(time.Second)
	})
	t.Error("Run returned normally")
}

// countNotifier counts its notifications; a pointer to one is a Notifier
// the caller keeps, as a device keeps its command records.
type countNotifier struct{ n int }

func (cn *countNotifier) Notify(error) { cn.n++ }

// TestTimerCost: a steady-state timer is its caller's closure and nothing
// else — the event lives by value in the clock's heap — and starts no
// goroutine. CompleteAfter, the common form, is measured with its future:
// two allocations. AfterNotify with a Notifier the caller keeps costs none.
// (The 0.05 slack is the Sleep's park channel, which the race detector's
// sync.Pool drops now and then.)
func TestTimerCost(t *testing.T) {
	c := New()
	c.Run(func() {
		const batch = 100
		fire := func() {
			for i := 0; i < batch; i++ {
				c.NewFuture().CompleteAfter(time.Duration(i%7)*time.Microsecond, nil)
			}
			c.Sleep(time.Millisecond)
		}
		fire() // grow the heap once
		if got := testing.AllocsPerRun(20, fire) / batch; got > 2.05 {
			t.Errorf("%.2f allocs per CompleteAfter timer (future + closure), want <= 2", got)
		}

		var cn countNotifier
		notify := func() {
			for i := 0; i < batch; i++ {
				c.AfterNotify(time.Duration(i%7)*time.Microsecond, &cn)
			}
			c.Sleep(time.Millisecond)
		}
		notify()
		if got := testing.AllocsPerRun(20, notify) / batch; got > 0.05 {
			t.Errorf("%.2f allocs per AfterNotify timer, want 0", got)
		}
		if want := 22 * batch; cn.n != want { // one warm-up, then AllocsPerRun's own and its 20
			t.Errorf("%d of %d AfterNotify timers fired", cn.n, want)
		}

		before := runtime.NumGoroutine()
		n := 0
		tick := func() { n++ }
		for i := 0; i < 10000; i++ {
			c.AfterFunc(time.Duration(i)*time.Nanosecond, tick)
		}
		if during := runtime.NumGoroutine(); during != before {
			t.Errorf("%d goroutines with 10000 timers pending, %d before", during, before)
		}
		c.Sleep(time.Millisecond)
		if n != 10000 {
			t.Errorf("%d of 10000 timers fired", n)
		}
		if after := runtime.NumGoroutine(); after != before {
			t.Errorf("%d goroutines after 10000 timers, %d before", after, before)
		}
	})
}

// TestRearmContract: Rearm refuses a future that is still incomplete, and
// a re-armed future is incomplete again, completes again with its new
// outcome, and wakes a waiter and a subscriber that came after the re-arm.
func TestRearmContract(t *testing.T) {
	c := New()
	c.Run(func() {
		f := c.NewFuture()
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Rearm of an incomplete future did not panic")
				}
			}()
			f.Rearm()
		}()

		f.CompleteAfter(time.Microsecond, errTimer)
		if err := f.Wait(); !errors.Is(err, errTimer) {
			t.Fatalf("first completion: %v", err)
		}
		f.Rearm()
		if f.Done() {
			t.Fatal("a re-armed future reports done")
		}

		var notified []error
		f.Subscribe(func(err error) { notified = append(notified, err) })
		woke := c.NewFuture()
		c.Go(func() { woke.Complete(f.Wait()) })
		f.CompleteAfter(time.Millisecond, nil)
		if err := woke.Wait(); err != nil {
			t.Errorf("waiter after the re-arm woke with %v, want the second outcome (nil)", err)
		}
		if len(notified) != 1 || notified[0] != nil {
			t.Errorf("subscriber after the re-arm notified %v, want once with nil", notified)
		}
		if err := f.Err(); err != nil {
			t.Errorf("second completion carries %v, want nil", err)
		}
	})
}
