package vclock

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// One driver runs every simulated goroutine as a coroutine. These tests pin
// down what that promises: the order at one instant, where a panic or
// Goexit goes, what a blocking callback gets, and who drives the work left
// when Run returns.

// TestSameInstantFIFO: goroutines made runnable at one instant run in the
// order they were woken, whatever woke them, and one woken by another runs
// behind those woken before it. A sleeper due at the same instant, queued
// after the callback that wakes the rest, runs once they have all blocked
// or returned: the driver takes the next event only on an empty queue.
func TestSameInstantFIFO(t *testing.T) {
	for run := 0; run < 5; run++ {
		c := New()
		var got []string
		var at []time.Duration
		rec := func(s string) {
			got = append(got, s)
			at = append(at, c.Now())
		}
		c.Run(func() {
			var mu sync.Mutex
			cv := c.NewCond(&mu)
			f, f2, g := c.NewFuture(), c.NewFuture(), c.NewFuture()
			wg := c.NewWaitGroup()
			wg.Add(1)
			ready := false
			// Started in this order, they run, and begin to wait, in it.
			c.Go(func() { f.Wait(); rec("w0") })
			c.Go(func() { f.Wait(); rec("w1") })
			c.Go(func() {
				mu.Lock()
				for !ready {
					cv.Wait()
				}
				mu.Unlock()
				rec("w2")
				g.Complete(nil)
			})
			c.Go(func() { wg.Wait(); rec("w3") })
			c.Go(func() {
				c.Sleep(time.Millisecond)
				c.Sleep(time.Millisecond) // queued behind the callback
				rec("w4")
			})
			c.Go(func() { f2.Wait(); rec("w5") })
			c.Go(func() { g.Wait(); rec("w6") })
			c.Sleep(time.Millisecond)
			c.AfterFunc(time.Millisecond, func() {
				mu.Lock()
				ready = true
				mu.Unlock()
				cv.Signal()
				f.Complete(nil)
				wg.Done()
				c.Go(func() { rec("n1") })
				f2.Complete(nil)
			})
			c.Sleep(5 * time.Millisecond)
		})
		want := []string{"w2", "w0", "w1", "w3", "n1", "w5", "w6", "w4"}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: order at one instant\n got %v\nwant %v", run, got, want)
		}
		for i, a := range at {
			if a != 2*time.Millisecond {
				t.Fatalf("run %d: %s ran at %v, want 2ms", run, got[i], a)
			}
		}
	}
}

// runAway runs fn under a fresh clock's Run on a goroutine of its own and
// reports what ended that goroutine: Run returning, a panic (its value),
// or a Goexit.
func runAway(t *testing.T, fn func(c *Clock)) (returned bool, panicked any) {
	t.Helper()
	c := New()
	type end struct {
		returned bool
		panicked any
	}
	ch := make(chan end, 1)
	go func() {
		e := end{}
		defer func() {
			e.panicked = recover()
			ch <- e
		}()
		c.Run(func() { fn(c) })
		e.returned = true
	}()
	select {
	case e := <-ch:
		return e.returned, e.panicked
	case <-time.After(5 * time.Second):
		t.Fatal("Run neither returned nor unwound")
		return false, nil
	}
}

// TestGoexitAndPanicUnwindRun: a Goexit (what t.FailNow does) or a panic in
// a goroutine started by Go unwinds out of Run, on Run's caller, rather
// than leaving the others parked for the deadlock detector.
func TestGoexitAndPanicUnwindRun(t *testing.T) {
	park := func(c *Clock) {
		c.Go(func() { c.NewFuture().Wait() }) // never woken
		c.Sleep(time.Second)
	}
	returned, p := runAway(t, func(c *Clock) {
		c.Go(func() {
			c.Sleep(time.Millisecond)
			runtime.Goexit()
		})
		park(c)
	})
	if returned || p != nil {
		t.Errorf("Goexit in a goroutine: Run returned=%v, panic %v; want the caller to exit", returned, p)
	}
	returned, p = runAway(t, func(c *Clock) {
		c.Go(func() {
			c.Sleep(time.Millisecond)
			panic("goroutine")
		})
		park(c)
	})
	if returned || p != "goroutine" {
		t.Errorf("panic in a goroutine: Run returned=%v, panic %v; want panic %q", returned, p, "goroutine")
	}
}

// TestBlockingCallbackPanics: a timer callback, and a Subscribe callback run
// by a goroutine or by a timer callback, have no goroutine of their own to
// suspend; blocking in one panics and says so.
func TestBlockingCallbackPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func(c *Clock)
	}{
		{"timer", func(c *Clock) {
			c.AfterFunc(time.Millisecond, func() { c.Sleep(time.Millisecond) })
			c.Sleep(time.Second)
		}},
		{"subscribe on a goroutine", func(c *Clock) {
			f := c.NewFuture()
			f.Subscribe(func(error) { c.NewFuture().Wait() })
			f.Complete(nil)
		}},
		{"subscribe in a timer", func(c *Clock) {
			f := c.NewFuture()
			wg := c.NewWaitGroup()
			wg.Add(1)
			f.Subscribe(func(error) { wg.Wait() })
			f.CompleteAfter(time.Millisecond, nil)
			c.Sleep(time.Second)
		}},
		{"already complete", func(c *Clock) {
			f := c.Completed(nil)
			var mu sync.Mutex
			cv := c.NewCond(&mu)
			f.Subscribe(func(error) {
				mu.Lock()
				cv.Wait()
			})
		}},
	} {
		_, p := runAway(t, tc.fn)
		if s, _ := p.(string); !strings.Contains(s, "blocking call from a timer or Subscribe callback") {
			t.Errorf("%s: recovered %v, want the blocking-callback panic", tc.name, p)
		}
	}
}

// TestWorkLeftAfterRun: when Run's goroutine returns with work left, a
// goroutine of the clock's own drives it; a later Run takes over from that
// one, and Run from a simulated goroutine runs inline.
func TestWorkLeftAfterRun(t *testing.T) {
	c := New()
	woke := make(chan time.Duration, 1)
	ticks := 0
	var tick func()
	tick = func() {
		if ticks++; ticks < 1000 {
			c.AfterFunc(time.Millisecond, tick)
		}
	}
	c.Run(func() {
		c.Go(func() {
			c.Sleep(time.Millisecond)
			woke <- c.Now()
		})
		c.AfterFunc(0, tick)
	})
	select {
	case at := <-woke:
		if at != time.Millisecond {
			t.Errorf("left-over sleeper woke at %v, want 1ms", at)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("work left by Run never ran")
	}

	var inner time.Duration
	c.Run(func() {
		t0 := c.Now()
		c.Run(func() { c.Sleep(time.Second) }) // inline: Run's own goroutine sleeps
		inner = c.Now() - t0
		c.Sleep(time.Second) // the ticks end
	})
	if inner != time.Second {
		t.Errorf("nested Run slept %v, want 1s", inner)
	}
	if ticks != 1000 {
		t.Errorf("%d of 1000 ticks after the second Run", ticks)
	}
}

// BenchmarkHandOff is a future ping-pong between two goroutines: one round
// trip is two completions, two waits and two hand-offs.
func BenchmarkHandOff(b *testing.B) {
	c := New()
	c.Run(func() {
		ping, pong := c.NewFuture(), c.NewFuture()
		stop := false
		c.Go(func() {
			for {
				ping.Wait()
				ping.Rearm()
				if stop {
					return
				}
				pong.Complete(nil)
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ping.Complete(nil)
			pong.Wait()
			pong.Rearm()
		}
		b.StopTimer()
		stop = true
		ping.Complete(nil)
	})
}
