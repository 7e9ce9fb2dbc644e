package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"raizn/internal/vclock"
)

func TestDisabledTracerReturnsNil(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		tr := NewTracer(clk, Config{})
		if tr.Enabled() {
			t.Fatal("new tracer should start disabled")
		}
		sp := tr.Begin(OpWrite, 0, 4096)
		if sp != nil {
			t.Fatal("disabled Begin must return nil")
		}
		// Every span method must be a no-op on nil.
		sp.Mark(PhasePlan)
		sp.MarkAt(PhaseQueue, time.Millisecond)
		sp.SetSegs(4)
		c := sp.Child(OpDevWrite, 1, 0, 4096)
		if c != nil {
			t.Fatal("nil span Child must return nil")
		}
		c.End(nil)
		sp.End(nil)
		if got := tr.Snapshot(); len(got) != 0 {
			t.Fatalf("disabled tracer recorded %d spans", len(got))
		}
	})
}

func TestDisabledTracingAllocatesNothing(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		tr := NewTracer(clk, Config{})
		allocs := testing.AllocsPerRun(100, func() {
			sp := tr.Begin(OpWrite, 0, 4096)
			c := sp.Child(OpDevWrite, 1, 0, 4096)
			c.MarkAt(PhaseQueue, 0)
			c.SetSegs(2)
			c.EndAt(0, nil)
			sp.Mark(PhaseSubmit)
			sp.End(nil)
		})
		if allocs != 0 {
			t.Fatalf("disabled tracing allocated %.1f per op, want 0", allocs)
		}
	})
}

func TestSpanTreeAndSink(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		tr := NewTracer(clk, Config{})
		tr.Enable()

		sp := tr.Begin(OpWrite, 100, 8192)
		clk.Sleep(time.Microsecond)
		sp.Mark(PhasePlan)
		c := sp.Child(OpDevWrite, 2, 700, 4096)
		c.SetSegs(3)
		c.MarkAt(PhaseQueue, clk.Now()+time.Microsecond)
		c.MarkAt(PhaseMedia, clk.Now()+3*time.Microsecond)
		c.EndAt(clk.Now()+5*time.Microsecond, nil)
		clk.Sleep(10 * time.Microsecond)
		sp.End(nil)

		roots := tr.Snapshot()
		if len(roots) != 1 {
			t.Fatalf("got %d roots, want 1", len(roots))
		}
		got := roots[0]
		if got.Op != OpWrite || got.LBA != 100 || got.Bytes != 8192 {
			t.Fatalf("root span = %+v", got)
		}
		if got.Duration() != 11*time.Microsecond {
			t.Fatalf("root duration = %v, want 11µs", got.Duration())
		}
		kids := got.Children()
		if len(kids) != 1 || kids[0].Dev != 2 || kids[0].Segs() != 3 {
			t.Fatalf("children = %+v", kids)
		}
		if _, ok := kids[0].MarkTime(PhaseQueue); !ok {
			t.Fatal("queue mark lost")
		}
		tree := FormatSpanTree(got)
		for _, want := range []string{"write", "dev-write", "dev=2", "segs=3"} {
			if !strings.Contains(tree, want) {
				t.Fatalf("span tree missing %q:\n%s", want, tree)
			}
		}

		tr.Reset()
		if len(tr.Snapshot()) != 0 {
			t.Fatal("Reset did not clear sink")
		}
	})
}

func TestSinkBounded(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		tr := NewTracer(clk, Config{SinkCapacity: 32})
		tr.Enable()
		for i := 0; i < 1000; i++ {
			sp := tr.Begin(OpRead, int64(i), 4096)
			sp.End(nil)
		}
		got := tr.Snapshot()
		if len(got) > 32+sinkShards {
			t.Fatalf("sink retained %d spans, want ~32", len(got))
		}
		// Retained spans must be the newest ones.
		for _, s := range got {
			if s.LBA < 900 {
				t.Fatalf("sink retained stale span lba=%d", s.LBA)
			}
		}
	})
}

func TestDoubleEndIdempotent(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		tr := NewTracer(clk, Config{})
		tr.Enable()
		sp := tr.Begin(OpFlush, 0, 0)
		sp.End(nil)
		clk.Sleep(time.Second)
		sp.End(nil) // must not re-record or move the end time
		if got := len(tr.Snapshot()); got != 1 {
			t.Fatalf("double End recorded %d spans", got)
		}
		if sp.Duration() != 0 {
			t.Fatalf("second End moved the end time: %v", sp.Duration())
		}
	})
}

func TestRegistryMetrics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("raizn_writes_total")
	c.Add(5)
	c.Inc()
	if r.Counter("raizn_writes_total") != c {
		t.Fatal("Counter not get-or-create")
	}
	if c.Load() != 6 {
		t.Fatalf("counter = %d, want 6", c.Load())
	}
	g := r.Gauge("raizn_open_zones")
	g.Set(3)
	g.Add(-1)
	if g.Load() != 2 {
		t.Fatalf("gauge = %d, want 2", g.Load())
	}
	r.GaugeFunc("zns_host_write_bytes", func() int64 { return 1234 })
	h := r.Histogram("raizn_write_latency_seconds")
	h.Record(time.Millisecond)
	h.Record(3 * time.Millisecond)

	snap := r.Snapshot()
	if snap.Counters["raizn_writes_total"] != 6 {
		t.Fatalf("snapshot counters = %+v", snap.Counters)
	}
	if snap.Gauges["raizn_open_zones"] != 2 || snap.Gauges["zns_host_write_bytes"] != 1234 {
		t.Fatalf("snapshot gauges = %+v", snap.Gauges)
	}
	hs := snap.Histograms["raizn_write_latency_seconds"]
	if hs.Count != 2 || hs.Min != time.Millisecond || hs.Max != 3*time.Millisecond {
		t.Fatalf("snapshot hist = %+v", hs)
	}

	var nilReg *Registry
	nilReg.Counter("x").Inc() // must not panic
	nilReg.GaugeFunc("y", func() int64 { return 0 })
	if got := nilReg.Snapshot(); len(got.Counters) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}

func TestExporters(t *testing.T) {
	r := NewRegistry()
	r.Counter("zns_write_cmds_total").Add(42)
	r.Gauge("raizn_degraded").Set(1)
	r.Histogram("raizn_read_latency_seconds").Record(2 * time.Millisecond)
	snap := r.Snapshot()

	var jbuf bytes.Buffer
	if err := snap.WriteJSON(&jbuf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(jbuf.Bytes(), &back); err != nil {
		t.Fatalf("JSON round-trip: %v\n%s", err, jbuf.String())
	}
	if back.Counters["zns_write_cmds_total"] != 42 {
		t.Fatalf("round-trip counters = %+v", back.Counters)
	}
}

func TestAnalyzeBreakdown(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		tr := NewTracer(clk, Config{})
		tr.Enable()

		// One write: plan 2µs, compute 3µs, submit 1µs, wait 10µs.
		sp := tr.Begin(OpWrite, 0, 4096)
		sp.MarkAt(PhasePlan, clk.Now()+2*time.Microsecond)
		sp.MarkAt(PhaseCompute, clk.Now()+5*time.Microsecond)
		sp.MarkAt(PhaseSubmit, clk.Now()+6*time.Microsecond)
		c := sp.Child(OpDevWrite, 0, 0, 4096)
		c.MarkAt(PhaseQueue, clk.Now()+8*time.Microsecond)
		c.MarkAt(PhaseMedia, clk.Now()+14*time.Microsecond)
		c.EndAt(clk.Now()+16*time.Microsecond, nil)
		sp.EndAt(clk.Now()+16*time.Microsecond, nil)

		b := Analyze(tr.Snapshot())
		check := func(name string, want time.Duration) {
			t.Helper()
			h := b.Hist(name)
			if h == nil || h.Count() != 1 {
				t.Fatalf("phase %s missing", name)
			}
			// Log-bucketed histograms have ~5% relative error.
			got := h.Percentile(50)
			if got < want*94/100 || got > want*106/100 {
				t.Fatalf("%s = %v, want ~%v", name, got, want)
			}
		}
		check("write/total", 16*time.Microsecond)
		check("write/plan", 2*time.Microsecond)
		check("write/compute", 3*time.Microsecond)
		check("write/submit", 1*time.Microsecond)
		check("write/wait", 10*time.Microsecond)
		check("dev-write/queue", 8*time.Microsecond)
		check("dev-write/media", 6*time.Microsecond)
		check("dev-write/complete", 2*time.Microsecond)

		var buf bytes.Buffer
		b.Write(&buf)
		if !strings.Contains(buf.String(), "write/plan") {
			t.Fatalf("breakdown table:\n%s", buf.String())
		}
	})
}

func TestQueueDepthTimeline(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		tr := NewTracer(clk, Config{})
		tr.Enable()
		sp := tr.Begin(OpWrite, 0, 0)
		// Two overlapping device IOs: [0,10µs] and [5µs,15µs].
		a := sp.Child(OpDevWrite, 0, 0, 4096)
		a.EndAt(clk.Now()+10*time.Microsecond, nil)
		clk.Sleep(5 * time.Microsecond)
		bSpan := sp.Child(OpDevWrite, 1, 0, 4096)
		bSpan.EndAt(clk.Now()+10*time.Microsecond, nil)
		sp.EndAt(clk.Now()+10*time.Microsecond, nil)

		pts := QueueDepthTimeline(tr.Snapshot())
		wantDepths := []int{1, 2, 1, 0}
		if len(pts) != len(wantDepths) {
			t.Fatalf("timeline = %+v", pts)
		}
		for i, want := range wantDepths {
			if pts[i].Depth != want {
				t.Fatalf("timeline[%d] = %+v, want depth %d (all: %+v)", i, pts[i], want, pts)
			}
		}
		var buf bytes.Buffer
		WriteTimeline(&buf, pts, 4)
		if !strings.Contains(buf.String(), "peak 2") {
			t.Fatalf("timeline render:\n%s", buf.String())
		}
	})
}

func BenchmarkDisabledTracing(b *testing.B) {
	clk := vclock.New()
	clk.Run(func() {
		tr := NewTracer(clk, Config{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sp := tr.Begin(OpWrite, int64(i), 4096)
			c := sp.Child(OpDevWrite, 0, int64(i), 4096)
			c.MarkAt(PhaseQueue, 0)
			c.SetSegs(1)
			c.EndAt(0, nil)
			sp.Mark(PhaseSubmit)
			sp.End(nil)
		}
	})
}

func BenchmarkEnabledTracing(b *testing.B) {
	clk := vclock.New()
	clk.Run(func() {
		tr := NewTracer(clk, Config{})
		tr.Enable()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sp := tr.Begin(OpWrite, int64(i), 4096)
			c := sp.Child(OpDevWrite, 0, int64(i), 4096)
			c.MarkAt(PhaseQueue, 0)
			c.SetSegs(1)
			c.EndAt(0, nil)
			sp.End(nil)
		}
	})
}
