package obs_test

import (
	"testing"
	"time"

	"raizn/internal/obs"
	"raizn/internal/obs/flight"
	"raizn/internal/vclock"
)

// A tracer's slow-span watchdog is the flight recorder attached to it
// with SetObserver: every finished root span is judged against the
// rolling per-op p99 of the spans before it. These tests drive that
// judgement through the tracer, the way raizn and raizn-inspect do.

func TestWatchdogFlagsOutliers(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		tr := obs.NewTracer(clk, obs.Config{})
		tr.Enable()
		rec := flight.New(flight.Config{Clock: clk, Multiple: 3, MinSamples: 10})
		tr.SetObserver(rec)
		end := func(d time.Duration) {
			sp := tr.Begin(obs.OpWrite, 0, 4096)
			sp.EndAt(clk.Now()+d, nil)
		}
		for i := 0; i < 50; i++ {
			end(time.Millisecond)
		}
		if kept := rec.Spans(); len(kept) != 0 {
			t.Fatalf("uniform latency flagged %d spans", len(kept))
		}
		end(100 * time.Millisecond)
		kept := rec.Spans()
		if len(kept) != 1 {
			t.Fatalf("flagged %d spans, want 1", len(kept))
		}
		if kept[0].Duration() != 100*time.Millisecond {
			t.Fatalf("flagged wrong span: %v", kept[0].Duration())
		}
		// Each outlier must outrun the p99 the previous one dragged up,
		// so escalate geometrically: every one is flagged.
		for i := 0; i < 10; i++ {
			end(time.Second << uint(2*i))
		}
		kept = rec.Spans()
		if len(kept) != 11 {
			t.Fatalf("flagged %d spans in all, want 11", len(kept))
		}
		for i, sp := range kept[1:] {
			if want := time.Second << uint(2*i); sp.Duration() != want {
				t.Fatalf("retained[%d] = %v, want %v (oldest first)", i+1, sp.Duration(), want)
			}
		}
	})
}

func TestWatchdogWarmup(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		tr := obs.NewTracer(clk, obs.Config{})
		tr.Enable()
		rec := flight.New(flight.Config{Clock: clk, MinSamples: 64})
		tr.SetObserver(rec)
		end := func(d time.Duration) {
			sp := tr.Begin(obs.OpRead, 0, 0)
			sp.EndAt(clk.Now()+d, nil)
		}
		// Slow spans during warmup must not be flagged: a two-sample p99
		// would flag nearly everything.
		for i := 0; i < 63; i++ {
			end(time.Duration(1+i%7) * time.Millisecond)
		}
		if kept := rec.Spans(); len(kept) != 0 {
			t.Fatalf("warmup flagged %d spans", len(kept))
		}
		// The 64th span has only 63 before it: still warm-up, however slow.
		end(time.Hour)
		if kept := rec.Spans(); len(kept) != 0 {
			t.Fatalf("span judged before MinSamples: flagged %d", len(kept))
		}
		// The 65th is judged; 4x the slowest span seen is above any p99.
		end(4 * time.Hour)
		if kept := rec.Spans(); len(kept) != 1 || kept[0].Duration() != 4*time.Hour {
			t.Fatalf("flagged %d spans after warmup, want the 4h span", len(kept))
		}
	})
}
