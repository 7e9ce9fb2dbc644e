package flight

import (
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"raizn/internal/obs"
	"raizn/internal/vclock"
)

// TestSeriesRingWraparound drives the Poll-based sampler past the ring
// capacity and checks that the retained window is the newest
// seriesCapacity samples, oldest-first, the rest overwritten.
func TestSeriesRingWraparound(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		reg := obs.NewRegistry()
		ctr := reg.Counter("raizn_test_total")
		rec := New(Config{Clock: clk, Registry: reg})

		const polls = seriesCapacity + 6
		for i := 0; i < polls; i++ {
			ctr.Inc()
			rec.Poll()
			clk.Sleep(time.Millisecond) // one sample boundary per loop
		}

		se := rec.Snapshot().series["raizn_test_total"]
		if se == nil {
			t.Fatal("counter series missing from snapshot")
		}
		if se.total != polls {
			t.Fatalf("sampled %d times, want %d", se.total, polls)
		}
		got := retained(se)
		if len(got) != seriesCapacity {
			t.Fatalf("retained %d samples, want ring capacity %d", len(got), seriesCapacity)
		}
		for i := 1; i < len(got); i++ {
			if got[i].TNs <= got[i-1].TNs {
				t.Fatalf("samples not oldest-first: %+v", got)
			}
		}
		// The oldest retained sample is the first not overwritten; the
		// newest saw the final counter value.
		if got[0].V != polls-seriesCapacity+1 || got[len(got)-1].V != polls {
			t.Fatalf("retained V %d..%d, want %d..%d",
				got[0].V, got[len(got)-1].V, polls-seriesCapacity+1, polls)
		}
	})
}

// TestPollAlignsToInterval checks the sample timestamps are boundary-
// aligned — floor(now/interval)*interval — regardless of when Poll runs.
func TestPollAlignsToInterval(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		reg := obs.NewRegistry()
		reg.Counter("raizn_test_total").Inc()
		rec := New(Config{Clock: clk, Registry: reg})
		clk.Sleep(2500 * time.Microsecond) // mid-interval
		rec.Poll()
		clk.Sleep(300 * time.Microsecond) // same interval: no new sample
		rec.Poll()
		s := retained(rec.Snapshot().series["raizn_test_total"])
		if len(s) != 1 {
			t.Fatalf("got %d samples, want 1 (second poll in same interval)", len(s))
		}
		if s[0].TNs != int64(2*time.Millisecond) {
			t.Fatalf("sample at %d ns, want boundary-aligned 2ms", s[0].TNs)
		}
	})
}

var errSpanFailed = errors.New("dev failed")

// feedSpan runs one traced root span of the given latency through the
// tracer (and so into any attached observer).
func feedSpan(clk *vclock.Clock, tr *obs.Tracer, lba int64, d time.Duration, err error) {
	sp := tr.Begin(obs.OpWrite, lba, 4096)
	clk.Sleep(d)
	sp.End(err)
}

// TestTailSamplingKeepsOutliersOnly checks the keep conditions: no span
// is judged slow before MinSamples spans of its op have completed, however
// far each outruns the ones before it; after that a span is kept only
// above Multiple× the rolling p99 of its op; an erred span is always
// kept; and a detached recorder judges nothing.
func TestTailSamplingKeepsOutliersOnly(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		tr := obs.NewTracer(clk, obs.Config{SinkCapacity: 4})
		tr.Enable()
		rec := New(Config{Clock: clk, Multiple: 3, MinSamples: 8})
		tr.SetObserver(rec)
		read := func(lba int64, d time.Duration) {
			sp := tr.Begin(obs.OpRead, lba, 4096)
			clk.Sleep(d)
			sp.End(nil)
		}

		// Warm-up: each read is 4x the slowest before it, so a p99 over
		// the few samples seen so far would keep every one of them.
		d := time.Millisecond
		for i := 0; i < 8; i++ {
			read(int64(i), d)
			d *= 4
		}
		if n := len(rec.Spans()); n != 0 {
			t.Fatalf("warm-up retained %d spans, want 0", n)
		}
		read(8, d) // the first judged read, 4x the p99 of the eight before
		if kept := rec.Spans(); len(kept) != 1 || kept[0].LBA != 8 {
			t.Fatalf("retained %d spans after warm-up, want the read at LBA 8", len(kept))
		}

		for i := 0; i < 20; i++ {
			feedSpan(clk, tr, int64(i), time.Millisecond, nil)
		}
		feedSpan(clk, tr, 99, 2*time.Millisecond, nil) // above the p99, under 3x it
		if n := len(rec.Spans()); n != 1 {
			t.Fatalf("uniform and sub-Multiple latencies retained %d more spans, want 0", n-1)
		}

		feedSpan(clk, tr, 100, time.Millisecond, errSpanFailed)
		feedSpan(clk, tr, 101, 10*time.Millisecond, nil) // >> 3x the rolling p99
		kept := rec.Spans()
		if len(kept) != 3 {
			t.Fatalf("retained %d spans, want warm-up boundary + erred + outlier", len(kept))
		}
		if kept[1].Err() == nil {
			t.Error("second retained span should carry the error")
		}
		if kept[2].LBA != 101 {
			t.Errorf("third retained span LBA = %d, want the outlier 101", kept[2].LBA)
		}

		tr.SetObserver(nil)
		feedSpan(clk, tr, 102, time.Hour, errSpanFailed)
		if n := len(rec.Spans()); n != 3 {
			t.Fatalf("detached recorder retained %d spans, want still 3", n)
		}
	})
}

// TestSpanRingWraparound overflows the span ring with erred spans (always
// kept) and checks oldest-first retention of the newest window, in the
// live recorder and in its frozen copy.
func TestSpanRingWraparound(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		tr := obs.NewTracer(clk, obs.Config{SinkCapacity: 2})
		tr.Enable()
		rec := New(Config{Clock: clk})
		tr.SetObserver(rec)
		const fed = spanCapacity + 5
		for i := 0; i < fed; i++ {
			feedSpan(clk, tr, int64(i), time.Millisecond, errSpanFailed)
		}
		snap := rec.Snapshot()
		if snap.spanTot != fed {
			t.Fatalf("kept %d spans in all, want %d", snap.spanTot, fed)
		}
		for _, r := range []*Recorder{rec, snap} {
			kept := r.Spans()
			if len(kept) != spanCapacity {
				t.Fatalf("retained %d spans, want %d", len(kept), spanCapacity)
			}
			for i, sp := range kept {
				if want := int64(fed - spanCapacity + i); sp.LBA != want {
					t.Fatalf("retained[%d].LBA = %d, want %d (oldest-first)", i, sp.LBA, want)
				}
			}
		}
	})
}

// runScripted drives one fixed workload — mixed-latency spans, journal
// events, a moving counter — and returns the frozen recorder's report.
func runScripted(t *testing.T) string {
	t.Helper()
	var out string
	clk := vclock.New()
	clk.Run(func() {
		reg := obs.NewRegistry()
		ctr := reg.Counter("raizn_scripted_total")
		jrn := obs.NewJournal(clk, obs.JournalConfig{Capacity: 32})
		jrn.Enable()
		tr := obs.NewTracer(clk, obs.Config{SinkCapacity: 8})
		tr.Enable()
		rec := New(Config{
			Clock: clk, Registry: reg, Journal: jrn,
			Label: "det", MinSamples: 8,
		})
		tr.SetObserver(rec)

		lats := []time.Duration{1, 1, 2, 1, 3, 1, 1, 2, 1, 9, 1, 1, 2, 14, 1, 1}
		for i, l := range lats {
			ctr.Add(int64(l))
			jrn.Record(obs.EvZoneState, i%5, i, int64(i), 0, 0, 0)
			feedSpan(clk, tr, int64(i), l*time.Millisecond, nil)
		}
		rec.Incident(Trigger{Kind: TrigSlowIO, Detail: "scripted", Dev: 2, Zone: -1})
		out = report(t, rec)
	})
	return out
}

func report(t *testing.T, r *Recorder) string {
	t.Helper()
	var sb strings.Builder
	if err := r.WriteReport(&sb); err != nil {
		t.Fatalf("WriteReport: %v", err)
	}
	return sb.String()
}

// TestTailSamplingDeterminism runs the identical scripted workload on two
// fresh clocks and requires byte-identical reports — the property CI's
// incident double-run diff rests on.
func TestTailSamplingDeterminism(t *testing.T) {
	a := runScripted(t)
	b := runScripted(t)
	if a != b {
		t.Fatalf("same-seed reports differ:\n%s\n---\n%s", a, b)
	}
	if !strings.Contains(a, "] span ") {
		t.Errorf("scripted workload retained no spans; outliers should be tail-sampled:\n%s", a)
	}
	if !strings.Contains(a, "] event ") {
		t.Errorf("frozen recorder carries no journal events:\n%s", a)
	}
}

// TestFreezeFirstWins checks freeze idempotence: the first trigger is
// pinned, and later spans/polls no longer change what it reports.
func TestFreezeFirstWins(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		reg := obs.NewRegistry()
		ctr := reg.Counter("raizn_test_total")
		tr := obs.NewTracer(clk, obs.Config{SinkCapacity: 2})
		tr.Enable()
		rec := New(Config{Clock: clk, Registry: reg})
		tr.SetObserver(rec)

		ctr.Inc()
		rec.Incident(Trigger{Kind: TrigOracle, Detail: "first"})
		if !rec.Frozen() {
			t.Fatal("not frozen after Incident")
		}
		before := report(t, rec)

		rec.freeze()
		ctr.Add(10)
		clk.Sleep(5 * time.Millisecond)
		rec.Poll()
		feedSpan(clk, tr, 7, time.Millisecond, errSpanFailed)

		rec.Incident(Trigger{Kind: TrigSlowIO, Detail: "third"})
		if d := rec.Trigger().Detail; d != "first" {
			t.Fatalf("trigger = %q, want the first freeze to win", d)
		}
		if after := report(t, rec); after != before {
			t.Fatalf("frozen report changed by post-freeze spans/polls:\n%s\n---\n%s", before, after)
		}
	})
}

// TestIncidentReport renders a report from a live incident and checks the
// required evidence is all present: a span, a journal event, a metric
// delta, the trigger's suspect coordinates.
func TestIncidentReport(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		reg := obs.NewRegistry()
		ctr := reg.Counter("raizn_writes_total")
		jrn := obs.NewJournal(clk, obs.JournalConfig{Capacity: 32})
		jrn.Enable()
		tr := obs.NewTracer(clk, obs.Config{SinkCapacity: 8})
		tr.Enable()
		rec := New(Config{Clock: clk, Registry: reg, Journal: jrn, Label: "unit", MinSamples: 4})
		tr.SetObserver(rec)

		rec.Poll() // baseline sample at t=0 so the trigger-window delta is visible
		for i := 0; i < 8; i++ {
			ctr.Inc()
			feedSpan(clk, tr, int64(i), time.Millisecond, nil)
		}
		jrn.Record(obs.EvZoneReset, 2, 4, 0, 0, 0, 0)
		sp := tr.Begin(obs.OpWrite, 99, 4096)
		ch := sp.Child(obs.OpDevWrite, 2, 99, 4096)
		clk.Sleep(20 * time.Millisecond)
		ch.End(errSpanFailed)
		sp.End(errSpanFailed)

		// A snapshot is a frozen copy with no trigger; the live
		// recorder runs on.
		snap := rec.Snapshot()
		if !snap.Frozen() || snap.Trigger() != nil || rec.Frozen() {
			t.Fatalf("Snapshot: copy frozen=%v trigger=%v, live frozen=%v; want a frozen untriggered copy of a live recorder",
				snap.Frozen(), snap.Trigger(), rec.Frozen())
		}
		snapAt := clk.Now()
		clk.Sleep(time.Millisecond)

		inc := rec.Incident(Trigger{Kind: TrigSlowIO, Detail: "unit trigger", Dev: 2, Zone: -1})
		if inc != rec || !rec.Frozen() {
			t.Fatal("Incident did not freeze the recorder it was called on")
		}
		rep := report(t, inc)
		for _, want := range []string{
			"slow-io", "unit trigger", // trigger
			"dev 2",              // suspect ranking seeded by trigger + err child
			"raizn_writes_total", // metric delta
			"zone-reset",         // journal event in the timeline
			"span",               // at least one span rendered
		} {
			if !strings.Contains(rep, want) {
				t.Errorf("report missing %q:\n%s", want, rep)
			}
		}

		// The snapshot adopts the first trigger it is filed under,
		// stamped with its freeze instant, and keeps it.
		snap.Incident(Trigger{Kind: TrigOracle, Detail: "adopted", TNs: 1, Dev: -1, Zone: 4})
		snap.Incident(Trigger{Kind: TrigSlowIO, Detail: "should not replace"})
		if trig := snap.Trigger(); trig == nil || trig.Detail != "adopted" || trig.TNs != int64(snapAt) {
			t.Fatalf("snapshot trigger = %+v, want the adopted trigger at %v", trig, snapAt)
		}
		srep := report(t, snap)
		for _, want := range []string{
			"frozen at: " + snapAt.String(),
			"trigger: oracle-violation at " + snapAt.String() + ": adopted",
			"zone 4   score 1005", "zone-reset", "dev 2",
		} {
			if !strings.Contains(srep, want) {
				t.Errorf("snapshot report missing %q:\n%s", want, srep)
			}
		}
	})
}

// TestSnapshotReadsNoGauge: a Snapshot of a live recorder, and the
// incident filed on it, evaluate no GaugeFunc. The chaos harness
// snapshots from a crash hook, which can fire under a lock that one of
// the component's own gauges takes.
func TestSnapshotReadsNoGauge(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		reg := obs.NewRegistry()
		armed := false
		reg.GaugeFunc("raizn_locked_gauge", func() int64 {
			if armed {
				t.Error("Snapshot read a gauge")
			}
			return 1
		})
		rec := New(Config{Clock: clk, Registry: reg})
		rec.Poll()
		clk.Sleep(5 * time.Millisecond) // a sample boundary is due
		armed = true
		snap := rec.Snapshot()
		snap.Incident(Trigger{Kind: TrigDeviceHealth, Dev: -1, Zone: -1})
		if err := snap.WriteReport(io.Discard); err != nil {
			t.Fatalf("WriteReport: %v", err)
		}
		armed = false
		rec.Poll()
		if got := rec.series["raizn_locked_gauge"].total; got != 2 {
			t.Fatalf("live recorder sampled the gauge %d times, want 2 (it runs on)", got)
		}
	})
}
