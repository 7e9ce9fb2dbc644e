package zns

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"raizn/internal/vclock"
)

// TestReadSnapshotSurvivesMutation pins the drain rule (readcopy.go): a
// read returns the bytes below the write pointer at its submit, although
// they reach its buffer later, because every operation that changes or
// recycles such bytes first finishes the copies in flight. Each case
// submits a read of pattern A and, at the same virtual instant, applies one
// mutator; after the read completes the buffer must hold A, and a later
// read shows that the mutation did happen.
//
// Each case runs twice: with GOMAXPROCS=1, where the copier cannot run
// before the test goroutine parks, so the mutation always lands before the
// copy and a case whose drain is deleted fails every time; and with the
// process's own setting, where the copier races the mutation.
func TestReadSnapshotSurvivesMutation(t *testing.T) {
	const n = 4 // sectors of A, the read's span
	cases := []struct {
		name string
		cfg  func(*Config)
		// mutate runs right after the read of [0, n) in zone 0 is
		// submitted, and returns what a fresh read of that span must show
		// afterwards (nil: the span is no longer readable).
		mutate  func(t *testing.T, d *Device, a []byte) []byte
		wantErr error // the snapshot read's own outcome
	}{
		{name: "reset-then-reuse", cfg: func(c *Config) { c.ZRWASectors = 8 }, mutate: func(t *testing.T, d *Device, a []byte) []byte {
			old := &d.zones[0].data[0]
			d.ResetZone(0)
			// Takes zone 0's buffer and, as a ZRWA write, fills it at submit:
			// long before the read completes.
			b := pattern(d.cfg, n, 0x3C)
			d.Write(d.ZoneStart(1), b, ZRWA)
			if &d.zones[1].data[0] != old {
				t.Fatal("zone 1 did not take the recycled buffer: the case would prove nothing")
			}
			return nil
		}},
		{name: "power-loss-then-rewrite", wantErr: ErrPowerLoss, mutate: func(t *testing.T, d *Device, a []byte) []byte {
			d.PowerLoss(nil) // A was never flushed: the cut is at 0
			b := pattern(d.cfg, n, 0x3C)
			d.Write(0, b, 0)
			return b
		}},
		{name: "power-loss-at-then-rewrite", wantErr: ErrPowerLoss, mutate: func(t *testing.T, d *Device, a []byte) []byte {
			d.PowerLossAt(map[int]int64{0: 1})
			b := pattern(d.cfg, n, 0x3C)
			d.Write(1, b, 0)
			return append(bytes.Clone(a[:d.cfg.SectorSize]), b[:(n-1)*d.cfg.SectorSize]...)
		}},
		{name: "corrupt-sector", mutate: func(t *testing.T, d *Device, a []byte) []byte {
			if err := d.CorruptSector(1); err != nil {
				t.Fatal(err)
			}
			return nil
		}},
		{name: "zrwa-overwrite", cfg: func(c *Config) { c.ZRWASectors = 8 }, mutate: func(t *testing.T, d *Device, a []byte) []byte {
			c := pattern(d.cfg, 2, 0x77)
			d.Write(1, c, ZRWA)
			ss := d.cfg.SectorSize
			return append(append(append([]byte(nil), a[:ss]...), c...), a[3*ss:]...)
		}},
	}
	for _, procs := range []int{1, 0} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/procs=%d", tc.name, procs), func(t *testing.T) {
				if procs > 0 {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				}
				cfg := testConfig()
				if tc.cfg != nil {
					tc.cfg(&cfg)
				}
				run(t, cfg, func(_ *vclock.Clock, d *Device) {
					a := pattern(cfg, n, 0xA5)
					mustWrite(t, d, 0, a, 0)
					buf := make([]byte, len(a))
					fut := d.Read(0, buf)
					after := tc.mutate(t, d, a)
					if fut.Done() {
						t.Fatal("the read completed before the mutation: the case would prove nothing")
					}
					if err := fut.Wait(); !errors.Is(err, tc.wantErr) {
						t.Fatalf("snapshot read: %v, want %v", err, tc.wantErr)
					}
					if !bytes.Equal(buf, a) {
						t.Fatal("the read returned bytes from after its submit")
					}
					// The mutation took effect: a read now sees its result.
					got := make([]byte, len(a))
					err := d.Read(0, got).Wait()
					switch {
					case after == nil && err == nil && bytes.Equal(got, a):
						t.Fatal("a fresh read still shows A: the mutator changed nothing")
					case after != nil && (err != nil || !bytes.Equal(got, after)):
						t.Fatalf("a fresh read (err %v) does not show the mutator's bytes", err)
					}
				})
			})
		}
	}
}

// TestReadFilledWithCopierStarved starves the copier (GOMAXPROCS=1: it
// cannot run until the test goroutine parks, and the parked goroutine runs
// every completion inline first), so the completions copy everything. Each
// read's sentinel-filled buffer must come back holding every byte of the
// zone: the payload, then zeroes where a finished zone was never written.
func TestReadFilledWithCopierStarved(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := testConfig()
	ss := cfg.SectorSize
	const written = 37 // a finished zone's tail past this reads as zeroes
	a := pattern(cfg, written, 0xA5)
	want := append(bytes.Clone(a), make([]byte, (int(cfg.ZoneCap)-written)*ss)...)
	run(t, cfg, func(_ *vclock.Clock, d *Device) {
		mustWrite(t, d, 0, a, 0)
		mustWait(t, "finish", d.FinishZone(0))
		// Whole zone, then spans starting mid-chunk and straddling the
		// end of the payload.
		spans := [][2]int{{0, int(cfg.ZoneCap)}, {3, 5}, {1, 40}, {33, 15}, {0, 1}}
		bufs := make([][]byte, len(spans))
		futs := make([]*vclock.Future, len(spans))
		for i, s := range spans {
			bufs[i] = bytes.Repeat([]byte{0xEE}, s[1]*ss)
			futs[i] = d.Read(int64(s[0]), bufs[i])
		}
		if err := vclock.WaitAll(futs...); err != nil {
			t.Fatal(err)
		}
		for i, s := range spans {
			if w := want[s[0]*ss : (s[0]+s[1])*ss]; !bytes.Equal(bufs[i], w) {
				j := 0
				for bufs[i][j] == w[j] {
					j++
				}
				t.Errorf("read of [%d, +%d): byte %d is %#x, want %#x", s[0], s[1], j, bufs[i][j], w[j])
			}
		}
	})
}

// TestPollBudget pins the copier's poll rule (pollBudget): only multi-chunk
// jobs earn poll time, earning stops at copierPollCap, polling spends it
// and parking empties it.
func TestPollBudget(t *testing.T) {
	const us = time.Microsecond
	type step struct {
		op     string // earn, spend or reset
		chunks uint32 // earn: the job's chunk count
		d      time.Duration
	}
	cases := []struct {
		name  string
		steps []step
		left  time.Duration
	}{
		{"one-chunk job earns nothing", []step{{op: "earn", chunks: 1, d: 30 * us}}, 0},
		{"stale job earns nothing", []step{{op: "earn", chunks: 0, d: 30 * us}}, 0},
		{"multi-chunk jobs earn their copy time", []step{{op: "earn", chunks: 4, d: 7 * us}, {op: "earn", chunks: 64, d: 5 * us}}, 12 * us},
		{"earning stops at the cap", []step{{op: "earn", chunks: 64, d: 40 * us}, {op: "earn", chunks: 64, d: 40 * us}}, copierPollCap},
		{"polling spends the budget", []step{{op: "earn", chunks: 4, d: 20 * us}, {op: "spend", d: 8 * us}}, 12 * us},
		{"spending stops at zero", []step{{op: "earn", chunks: 4, d: 5 * us}, {op: "spend", d: 8 * us}}, 0},
		{"parking empties it", []step{{op: "earn", chunks: 64, d: 40 * us}, {op: "reset"}}, 0},
		{"earned again after parking", []step{{op: "earn", chunks: 64, d: 40 * us}, {op: "reset"}, {op: "earn", chunks: 2, d: 3 * us}}, 3 * us},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var b pollBudget
			for _, s := range tc.steps {
				switch s.op {
				case "earn":
					b.earn(s.chunks, s.d)
				case "spend":
					b.spend(s.d)
				case "reset":
					b.reset()
				}
			}
			if got := b.left(); got != tc.left {
				t.Fatalf("left %v, want %v", got, tc.left)
			}
		})
	}
}

// TestFinishTakesTheRestInOneClaim has a holder goroutine claim chunk 0 of
// a four-chunk job, as the copier would, and keep it while the test
// goroutine runs the job's finish. finish must copy chunks 1–3 and publish
// them in done at once, not return before the holder publishes chunk 0,
// and leave dst equal to the source. On more than one core the holder
// busy-waits once it has closed held, so the test goroutine that the close
// wakes runs finish on another core while the holder watches its claim
// happen; the round repeats because where the scheduler runs the two is
// not up to the test.
func TestFinishTakesTheRestInOneClaim(t *testing.T) {
	wait := func() {
		if runtime.GOMAXPROCS(0) == 1 {
			runtime.Gosched()
		}
	}
	src := make([]byte, 4*copyChunk)
	for i := range src {
		src[i] = byte(i*7 + i>>14)
	}
	dst := make([]byte, len(src))
	var j readCopy
	for round := 0; round < 20; round++ {
		clear(dst)
		j.start(dst, false, src)
		if n := j.state.Load() >> 16 & 0xffff; n != 4 {
			t.Fatalf("the job has %d chunks, want 4", n)
		}
		var returned atomic.Bool
		held, failed := make(chan struct{}), make(chan string, 2) // room for both of its sends
		go func() {
			defer close(failed)
			j.state.Add(1) // chunk 0: claimed, not yet copied or published
			close(held)
			var first uint32
			for deadline := time.Now().Add(10 * time.Second); first == 0; first = j.done.Load() {
				if time.Now().After(deadline) {
					j.done.Store(4) // let finish return
					failed <- "finish did not copy chunks 1-3"
					return
				}
				wait()
			}
			switch {
			case first != 3:
				failed <- fmt.Sprintf("done first read %d: finish published chunks 1-3 one at a time", first)
			case j.state.Load()&0xffff != 4:
				failed <- fmt.Sprintf("claimed up to chunk %d after finish's claim, want 4", j.state.Load()&0xffff)
			case !bytes.Equal(dst[copyChunk:], src[copyChunk:]):
				failed <- "chunks 1-3 published but not copied"
			}
			copy(dst[:copyChunk], src)
			runtime.Gosched()
			if returned.Load() {
				failed <- "finish returned while chunk 0 was still being copied"
			}
			j.done.Add(1)
		}()
		<-held
		j.finish()
		returned.Store(true)
		if msg, ok := <-failed; ok {
			t.Fatalf("round %d: %s", round, msg)
		}
		if !bytes.Equal(dst, src) {
			t.Fatal("dst differs from the source")
		}
	}
}

// TestCopierParksAfterBurst keeps the copier busy with multi-chunk jobs,
// as large reads offer them, for 30 ms of host time and then offers
// nothing: having earned its whole poll budget, the copier must park
// within 10 ms, on one core and on two. An uncapped budget would have it
// poll for about as long as it copied.
func TestCopierParksAfterBurst(t *testing.T) {
	startCopier()
	src := make([]byte, 1<<20)
	for i := range src {
		src[i] = byte(i)
	}
	dst := make([]byte, len(src))
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			var j readCopy
			for end := time.Now().Add(30 * time.Millisecond); time.Now().Before(end); {
				ref := j.start(dst, false, src)
				sendCopy(ref)
				n := j.state.Load() >> 16 & 0xffff
				for deadline := time.Now().Add(10 * time.Second); j.done.Load() < uint32(n); {
					if time.Now().After(deadline) {
						t.Fatal("the copier did not take an offered job")
					}
					runtime.Gosched()
				}
			}
			idle := time.Now()
			for !copierParked.Load() {
				if d := time.Since(idle); d > 10*time.Millisecond {
					t.Fatalf("the copier still polls %v after its last job", d)
				}
				runtime.Gosched()
			}
		})
	}
}
