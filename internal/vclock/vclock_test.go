package vclock

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSleepAdvancesVirtualTime(t *testing.T) {
	c := New()
	start := time.Now()
	c.Run(func() {
		c.Sleep(5 * time.Hour)
		if got := c.Now(); got != 5*time.Hour {
			t.Errorf("Now() = %v, want 5h", got)
		}
	})
	if real := time.Since(start); real > 2*time.Second {
		t.Errorf("virtual sleep took %v of real time", real)
	}
}

func TestSleepZeroAndNegative(t *testing.T) {
	c := New()
	c.Run(func() {
		c.Sleep(0)
		c.Sleep(-time.Second)
		if got := c.Now(); got != 0 {
			t.Errorf("Now() = %v, want 0", got)
		}
	})
}

func TestConcurrentSleepersOrdering(t *testing.T) {
	c := New()
	var mu sync.Mutex
	var order []int
	wg := c.NewWaitGroup()
	c.Run(func() {
		for i := 5; i >= 1; i-- {
			i := i
			wg.Add(1)
			c.Go(func() {
				defer wg.Done()
				c.Sleep(time.Duration(i) * time.Millisecond)
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			})
		}
		wg.Wait()
	})
	if len(order) != 5 {
		t.Fatalf("got %d wakeups, want 5", len(order))
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("wakeup order %v, want ascending 1..5", order)
		}
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	c := New()
	var mu sync.Mutex
	var order []int
	wg := c.NewWaitGroup()
	c.Run(func() {
		for i := 0; i < 10; i++ {
			i := i
			wg.Add(1)
			c.Go(func() {
				defer wg.Done()
				c.Sleep(time.Millisecond) // all wake at the same instant
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			})
		}
		wg.Wait()
	})
	if len(order) != 10 {
		t.Fatalf("got %d wakeups, want 10", len(order))
	}
}

func TestFutureCompleteBeforeWait(t *testing.T) {
	c := New()
	c.Run(func() {
		f := c.NewFuture()
		f.Complete(nil)
		if !f.Done() {
			t.Error("Done() = false after Complete")
		}
		if err := f.Wait(); err != nil {
			t.Errorf("Wait() = %v, want nil", err)
		}
	})
}

func TestFutureCompleteAfter(t *testing.T) {
	c := New()
	errBoom := errors.New("boom")
	c.Run(func() {
		f := c.NewFuture()
		f.CompleteAfter(3*time.Second, errBoom)
		if err := f.Wait(); err != errBoom {
			t.Errorf("Wait() = %v, want boom", err)
		}
		if got := c.Now(); got != 3*time.Second {
			t.Errorf("Now() = %v, want 3s", got)
		}
	})
}

func TestFutureMultipleWaiters(t *testing.T) {
	c := New()
	var woken int32
	c.Run(func() {
		f := c.NewFuture()
		wg := c.NewWaitGroup()
		for i := 0; i < 8; i++ {
			wg.Add(1)
			c.Go(func() {
				defer wg.Done()
				if err := f.Wait(); err != nil {
					t.Errorf("Wait() = %v", err)
				}
				atomic.AddInt32(&woken, 1)
			})
		}
		f.CompleteAfter(time.Second, nil)
		wg.Wait()
	})
	if woken != 8 {
		t.Errorf("woken = %d, want 8", woken)
	}
}

func TestFutureDoubleCompletePanics(t *testing.T) {
	c := New()
	c.Run(func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on double Complete")
			}
		}()
		f := c.NewFuture()
		f.Complete(nil)
		f.Complete(nil)
	})
}

func TestCompletedFuture(t *testing.T) {
	c := New()
	errX := errors.New("x")
	c.Run(func() {
		if err := c.Completed(errX).Wait(); err != errX {
			t.Errorf("Wait() = %v, want x", err)
		}
	})
}

func TestWaitAllReturnsFirstError(t *testing.T) {
	c := New()
	e1, e2 := errors.New("first"), errors.New("second")
	c.Run(func() {
		f1, f2, f3 := c.NewFuture(), c.NewFuture(), c.NewFuture()
		f1.CompleteAfter(time.Second, nil)
		f2.CompleteAfter(2*time.Second, e1)
		f3.CompleteAfter(3*time.Second, e2)
		if err := WaitAll(f1, f2, f3, nil); err != e1 {
			t.Errorf("WaitAll = %v, want first", err)
		}
	})
}

func TestCondBroadcast(t *testing.T) {
	c := New()
	var mu sync.Mutex
	cond := c.NewCond(&mu)
	ready := 0
	c.Run(func() {
		wg := c.NewWaitGroup()
		for i := 0; i < 4; i++ {
			wg.Add(1)
			c.Go(func() {
				defer wg.Done()
				mu.Lock()
				for ready == 0 {
					cond.Wait()
				}
				mu.Unlock()
			})
		}
		c.Sleep(time.Second)
		mu.Lock()
		ready = 1
		cond.Broadcast()
		mu.Unlock()
		wg.Wait()
	})
}

func TestCondSignalWakesOne(t *testing.T) {
	c := New()
	var mu sync.Mutex
	cond := c.NewCond(&mu)
	tokens := 0
	var served int32
	c.Run(func() {
		wg := c.NewWaitGroup()
		for i := 0; i < 3; i++ {
			wg.Add(1)
			c.Go(func() {
				defer wg.Done()
				mu.Lock()
				for tokens == 0 {
					cond.Wait()
				}
				tokens--
				mu.Unlock()
				atomic.AddInt32(&served, 1)
			})
		}
		for i := 0; i < 3; i++ {
			c.Sleep(time.Millisecond)
			mu.Lock()
			tokens++
			cond.Signal()
			mu.Unlock()
		}
		wg.Wait()
	})
	if served != 3 {
		t.Errorf("served = %d, want 3", served)
	}
}

func TestWaitGroupImmediateWait(t *testing.T) {
	c := New()
	c.Run(func() {
		wg := c.NewWaitGroup()
		wg.Wait() // counter already zero: must not block
	})
}

func TestDeadlockDetection(t *testing.T) {
	c := New()
	done := make(chan interface{}, 1)
	go func() {
		defer func() { done <- recover() }()
		c.Run(func() {
			f := c.NewFuture()
			f.Wait() // nobody will ever complete this
		})
	}()
	select {
	case r := <-done:
		if r == nil {
			t.Error("expected deadlock panic, got clean return")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("deadlock was not detected")
	}
}

func TestAfterFunc(t *testing.T) {
	c := New()
	var at time.Duration
	c.Run(func() {
		f := c.NewFuture()
		c.AfterFunc(42*time.Millisecond, func() {
			at = c.Now()
			f.Complete(nil)
		})
		f.Wait()
	})
	if at != 42*time.Millisecond {
		t.Errorf("fired at %v, want 42ms", at)
	}
}

func TestNestedGoKeepsTimeCoherent(t *testing.T) {
	c := New()
	var t1, t2 time.Duration
	c.Run(func() {
		wg := c.NewWaitGroup()
		wg.Add(1)
		c.Go(func() {
			defer wg.Done()
			c.Sleep(10 * time.Millisecond)
			t1 = c.Now()
			inner := c.NewWaitGroup()
			inner.Add(1)
			c.Go(func() {
				defer inner.Done()
				c.Sleep(5 * time.Millisecond)
				t2 = c.Now()
			})
			inner.Wait()
		})
		wg.Wait()
	})
	if t1 != 10*time.Millisecond || t2 != 15*time.Millisecond {
		t.Errorf("t1=%v t2=%v, want 10ms/15ms", t1, t2)
	}
}

func TestManyIOsPerformance(t *testing.T) {
	// Smoke test that goroutine-per-IO scales to tens of thousands.
	c := New()
	const n = 20000
	var completed int32
	c.Run(func() {
		wg := c.NewWaitGroup()
		for i := 0; i < n; i++ {
			wg.Add(1)
			f := c.NewFuture()
			f.CompleteAfter(time.Duration(i%100)*time.Microsecond, nil)
			c.Go(func() {
				defer wg.Done()
				f.Wait()
				atomic.AddInt32(&completed, 1)
			})
		}
		wg.Wait()
	})
	if completed != n {
		t.Errorf("completed = %d, want %d", completed, n)
	}
}

func TestWaitGroupNegativePanics(t *testing.T) {
	c := New()
	c.Run(func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on negative counter")
			}
		}()
		wg := c.NewWaitGroup()
		wg.Done()
	})
}

func TestCondStressManyWaiters(t *testing.T) {
	c := New()
	var mu sync.Mutex
	cond := c.NewCond(&mu)
	token := 0
	var served int32
	c.Run(func() {
		wg := c.NewWaitGroup()
		const n = 50
		for i := 0; i < n; i++ {
			wg.Add(1)
			c.Go(func() {
				defer wg.Done()
				mu.Lock()
				for token == 0 {
					cond.Wait()
				}
				token--
				mu.Unlock()
				atomic.AddInt32(&served, 1)
			})
		}
		// Release waiters in bursts interleaved with virtual time.
		for released := 0; released < n; {
			c.Sleep(time.Millisecond)
			mu.Lock()
			burst := 7
			if released+burst > n {
				burst = n - released
			}
			token += burst
			released += burst
			cond.Broadcast()
			mu.Unlock()
		}
		wg.Wait()
	})
	if served != 50 {
		t.Errorf("served = %d, want 50", served)
	}
}

func TestSleepOrderingUnderConcurrentSpawns(t *testing.T) {
	// Spawning goroutines while others sleep must never run events out
	// of order: record the virtual timestamps at wake-up.
	c := New()
	var mu sync.Mutex
	var stamps []time.Duration
	c.Run(func() {
		wg := c.NewWaitGroup()
		for i := 0; i < 30; i++ {
			d := time.Duration(30-i) * time.Millisecond
			wg.Add(1)
			c.Go(func() {
				defer wg.Done()
				c.Sleep(d)
				mu.Lock()
				stamps = append(stamps, c.Now())
				mu.Unlock()
			})
			c.Sleep(time.Microsecond)
		}
		wg.Wait()
	})
	for i := 1; i < len(stamps); i++ {
		if stamps[i] < stamps[i-1] {
			t.Fatalf("wakeup timestamps regressed: %v", stamps)
		}
	}
}

// TestCondWaitAllocs guards the waiter slice reuse: once a Cond is in
// steady use, a Wait costs nothing — the waiter slice keeps its backing
// array and the wake-up channel comes from the park-channel pool — whether
// it is woken by Signal or by Broadcast. Two goroutines ping-pong a token
// through two Conds, so one round is two Waits.
func TestCondWaitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	for _, broadcast := range []bool{false, true} {
		c := New()
		var mu sync.Mutex
		ping, pong := c.NewCond(&mu), c.NewCond(&mu)
		wake := func(cv *Cond) {
			if broadcast {
				cv.Broadcast()
			} else {
				cv.Signal()
			}
		}
		turn, stop := 0, false // turn 1: echo goroutine's move
		c.Run(func() {
			c.Go(func() {
				mu.Lock()
				defer mu.Unlock()
				for {
					for turn != 1 && !stop {
						ping.Wait()
					}
					if stop {
						return
					}
					turn = 0
					wake(pong)
				}
			})
			round := func() {
				mu.Lock()
				turn = 1
				wake(ping)
				for turn != 0 {
					pong.Wait()
				}
				mu.Unlock()
			}
			if got := testing.AllocsPerRun(200, round); got != 0 {
				t.Errorf("broadcast=%v: %.1f allocs per round of two Waits, want 0", broadcast, got)
			}
			mu.Lock()
			stop = true
			ping.Broadcast()
			mu.Unlock()
		})
	}
}

// TestWaitAllocs: in steady state a goroutine parks and is woken without
// allocating, in each blocking primitive. The future a Wait parks on is
// its producer's allocation (here one slab), not the Wait's: the first
// waiter's channel sits inline in the Future, and every park channel comes
// from the pool and goes back to it when its goroutine is woken. The wake
// comes from a timer callback, which the waiting goroutine runs itself
// once it has parked.
func TestWaitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const runs = 200
	c := New()
	c.Run(func() {
		futs := c.NewFutureSlab(runs + 2) // one-shot: a warm-up here, one in AllocsPerRun
		next := 0
		complete := func() { futs[next].Complete(nil) }

		var mu sync.Mutex
		cv := c.NewCond(&mu)
		ready := false
		signal := func() {
			mu.Lock()
			ready = true
			mu.Unlock()
			cv.Signal()
		}

		for _, row := range []struct {
			name string
			wait func()
		}{
			{"Future.Wait", func() {
				c.AfterFunc(time.Microsecond, complete)
				if err := futs[next].Wait(); err != nil {
					t.Fatal(err)
				}
				next++
			}},
			{"Cond.Wait", func() {
				mu.Lock()
				ready = false
				c.AfterFunc(time.Microsecond, signal)
				for !ready {
					cv.Wait()
				}
				mu.Unlock()
			}},
			{"Sleep", func() { c.Sleep(time.Microsecond) }},
		} {
			row.wait() // grow the timer heap and fill the channel pool once
			t0 := c.Now()
			if got := testing.AllocsPerRun(runs, row.wait); got != 0 {
				t.Errorf("%s: %.2f allocs per wait, want 0", row.name, got)
			}
			if c.Now() == t0 {
				t.Errorf("%s: no virtual time passed, so nothing parked", row.name)
			}
		}
	})
}
