package flight

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"raizn/internal/obs"
	"raizn/internal/vclock"
)

// TestSeriesRingWraparound drives the Poll-based sampler past the ring
// capacity and checks that the retained window is the newest N samples,
// oldest-first, with the overwritten remainder counted as dropped.
func TestSeriesRingWraparound(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		reg := obs.NewRegistry()
		ctr := reg.Counter("raizn_test_total")
		rec := New(Config{Clock: clk, Registry: reg, SeriesCapacity: 4})

		const polls = 10
		for i := 0; i < polls; i++ {
			ctr.Inc()
			rec.Poll()
			clk.Sleep(time.Millisecond) // one sample boundary per loop
		}

		box := rec.Snapshot()
		var got *SeriesDump
		for i := range box.Series {
			if box.Series[i].Name == "raizn_test_total" {
				got = &box.Series[i]
			}
		}
		if got == nil {
			t.Fatal("counter series missing from snapshot")
		}
		if len(got.Samples) != 4 {
			t.Fatalf("retained %d samples, want ring capacity 4", len(got.Samples))
		}
		if got.Dropped != polls-4 {
			t.Fatalf("Dropped = %d, want %d", got.Dropped, polls-4)
		}
		for i := 1; i < len(got.Samples); i++ {
			if got.Samples[i].TNs <= got.Samples[i-1].TNs {
				t.Fatalf("samples not oldest-first: %+v", got.Samples)
			}
		}
		// The newest retained sample saw the final counter value.
		if last := got.Samples[len(got.Samples)-1]; last.V != polls {
			t.Fatalf("newest sample V = %d, want %d", last.V, polls)
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
		rec := New(Config{Clock: clk, Registry: reg, SampleInterval: time.Millisecond})
		clk.Sleep(2500 * time.Microsecond) // mid-interval
		rec.Poll()
		clk.Sleep(300 * time.Microsecond) // same interval: no new sample
		rec.Poll()
		box := rec.Snapshot()
		s := box.Series[0].Samples
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
		if n := len(rec.Snapshot().Spans); n != 1 {
			t.Fatalf("uniform and sub-Multiple latencies retained %d more spans, want 0", n-1)
		}

		feedSpan(clk, tr, 100, time.Millisecond, errSpanFailed)
		feedSpan(clk, tr, 101, 10*time.Millisecond, nil) // >> 3x the rolling p99
		box := rec.Snapshot()
		if len(box.Spans) != 3 {
			t.Fatalf("retained %d spans, want warm-up boundary + erred + outlier", len(box.Spans))
		}
		if box.Spans[1].Err == "" {
			t.Error("second retained span should carry the error")
		}
		if box.Spans[2].LBA != 101 {
			t.Errorf("third retained span LBA = %d, want the outlier 101", box.Spans[2].LBA)
		}

		tr.SetObserver(nil)
		feedSpan(clk, tr, 102, time.Hour, errSpanFailed)
		if n := len(rec.Spans()); n != 3 {
			t.Fatalf("detached recorder retained %d spans, want still 3", n)
		}
	})
}

// TestSpanRingWraparound overflows the span ring with erred spans (always
// kept) and checks oldest-first retention of the newest window.
func TestSpanRingWraparound(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		tr := obs.NewTracer(clk, obs.Config{SinkCapacity: 2})
		tr.Enable()
		rec := New(Config{Clock: clk, SpanCapacity: 3})
		tr.SetObserver(rec)
		for i := 0; i < 8; i++ {
			feedSpan(clk, tr, int64(i), time.Millisecond, errSpanFailed)
		}
		box := rec.Snapshot()
		if box.SpansTotal != 8 {
			t.Fatalf("SpansTotal = %d, want 8", box.SpansTotal)
		}
		if len(box.Spans) != 3 {
			t.Fatalf("retained %d spans, want 3", len(box.Spans))
		}
		for i, want := range []int64{5, 6, 7} {
			if box.Spans[i].LBA != want {
				t.Fatalf("retained[%d].LBA = %d, want %d (oldest-first)", i, box.Spans[i].LBA, want)
			}
		}
	})
}

// runScripted drives one fixed workload — mixed-latency spans, journal
// events, a moving counter — and returns the frozen box's bytes.
func runScripted(t *testing.T) []byte {
	t.Helper()
	var out []byte
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
			Label: "det", MinSamples: 8, SeriesCapacity: 16,
		})
		tr.SetObserver(rec)

		lats := []time.Duration{1, 1, 2, 1, 3, 1, 1, 2, 1, 9, 1, 1, 2, 14, 1, 1}
		for i, l := range lats {
			ctr.Add(int64(l))
			jrn.Record(obs.EvZoneState, i%5, i, int64(i), 0, 0, 0)
			feedSpan(clk, tr, int64(i), l*time.Millisecond, nil)
		}
		rec.Freeze(&Trigger{Kind: TrigSlowIO, Detail: "scripted", Dev: 2, Zone: -1})
		data, err := rec.Snapshot().Marshal()
		if err != nil {
			t.Fatalf("Marshal: %v", err)
		}
		out = data
	})
	return out
}

// TestTailSamplingDeterminism runs the identical scripted workload on two
// fresh clocks and requires byte-identical serialized boxes — the
// property CI's incident double-run diff rests on.
func TestTailSamplingDeterminism(t *testing.T) {
	a := runScripted(t)
	b := runScripted(t)
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed boxes differ:\n%s\n---\n%s", a, b)
	}
	box, err := Unmarshal(a)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if len(box.Spans) == 0 {
		t.Error("scripted workload retained no spans; outliers should be tail-sampled")
	}
	if len(box.Events) == 0 {
		t.Error("frozen box carries no journal events")
	}
}

// TestFreezeFirstWins checks freeze idempotence: the first trigger is
// pinned, and later spans/polls no longer mutate the box.
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
		rec.Freeze(&Trigger{Kind: TrigOracle, Detail: "first"})
		if !rec.Frozen() {
			t.Fatal("not frozen after Freeze")
		}
		before := rec.Snapshot()

		rec.Freeze(&Trigger{Kind: TrigSlowIO, Detail: "second"})
		ctr.Add(10)
		clk.Sleep(5 * time.Millisecond)
		rec.Poll()
		feedSpan(clk, tr, 7, time.Millisecond, errSpanFailed)

		after := rec.Snapshot()
		if after.Trigger.Detail != "first" {
			t.Fatalf("trigger = %q, want the first freeze to win", after.Trigger.Detail)
		}
		ab, _ := after.Marshal()
		bb, _ := before.Marshal()
		if !bytes.Equal(ab, bb) {
			t.Fatal("frozen box mutated by post-freeze spans/polls")
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

		inc := rec.Incident(Trigger{Kind: TrigSlowIO, Detail: "unit trigger", Dev: 2, Zone: -1})
		var sb strings.Builder
		if err := inc.WriteReport(&sb); err != nil {
			t.Fatalf("WriteReport: %v", err)
		}
		rep := sb.String()
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

		// Round-trip through the persisted form: FromBox keeps the pinned
		// trigger and renders the same evidence.
		data, err := inc.Box.Marshal()
		if err != nil {
			t.Fatalf("Marshal: %v", err)
		}
		box, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("Unmarshal: %v", err)
		}
		inc2 := FromBox(box, &Trigger{Kind: TrigOracle, Detail: "should not replace"})
		if inc2.Box.Trigger.Detail != "unit trigger" {
			t.Fatalf("FromBox replaced a pinned trigger: %q", inc2.Box.Trigger.Detail)
		}
		var sb2 strings.Builder
		if err := inc2.WriteReport(&sb2); err != nil {
			t.Fatalf("WriteReport (recovered): %v", err)
		}
		if sb2.String() != rep {
			t.Error("recovered box renders a different report than the live incident")
		}
	})
}

// TestUnmarshalRejectsWrongSchema guards the persisted-format contract.
func TestUnmarshalRejectsWrongSchema(t *testing.T) {
	if _, err := Unmarshal([]byte(`{"schema":"bogus/v9"}`)); err == nil {
		t.Fatal("Unmarshal accepted a wrong schema")
	}
	if _, err := Unmarshal([]byte(`{broken`)); err == nil {
		t.Fatal("Unmarshal accepted garbage")
	}
}
