package flight

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Incident is a frozen black box plus the trigger that froze it. The
// report renderer works purely from the BlackBox, so an incident built
// from a snapshot taken at a crash renders exactly like one built from
// the frozen recorder.
type Incident struct {
	Box *BlackBox
}

// Incident freezes the recorder with the trigger (stamping the trigger
// time if unset) and returns the incident. Calling it on an
// already-frozen recorder keeps the first trigger and returns the
// frozen state.
func (r *Recorder) Incident(trig Trigger) *Incident {
	if trig.TNs == 0 {
		trig.TNs = int64(r.cfg.Clock.Now())
	}
	r.Freeze(&trig)
	return &Incident{Box: r.Snapshot()}
}

// FromBox wraps a black box snapshot as an incident. When the box
// carries no trigger (a bare crash capture) and trig is non-nil, trig
// is adopted.
func FromBox(b *BlackBox, trig *Trigger) *Incident {
	if b.Trigger == nil && trig != nil {
		b.Trigger = trig
	}
	return &Incident{Box: b}
}

// timelineEntry is one merged line: a span or a journal event.
type timelineEntry struct {
	t    int64
	kind int // 0 = event, 1 = span: events sort first at equal time
	seq  uint64
	text string
}

// suspectScore accumulates evidence against one device or zone.
type suspectScore struct {
	id        int
	score     int64
	slowSpans int
	errSpans  int
	events    int
}

// WriteReport renders the deterministic incident report: trigger,
// per-device and per-zone suspect ranking, the merged timeline of spans
// and journal events, and the metric deltas across the retained window
// up to the freeze instant. Two black boxes with equal content render
// byte-identically.
func (inc *Incident) WriteReport(w io.Writer) error {
	b := inc.Box
	pf := func(format string, args ...interface{}) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	if err := pf("=== incident report (%s) ===\n", b.Schema); err != nil {
		return err
	}
	if b.Label != "" {
		if err := pf("label: %s\n", b.Label); err != nil {
			return err
		}
	}
	if err := pf("frozen at: %v\n", time.Duration(b.FrozenAtNs)); err != nil {
		return err
	}
	if trig := b.Trigger; trig != nil {
		if err := pf("trigger: %s at %v: %s\n",
			trig.Kind, time.Duration(trig.TNs), trig.Detail); err != nil {
			return err
		}
		if trig.Tenant != "" || trig.Array != "" {
			if err := pf("attribution: tenant=%s array=%s\n", trig.Tenant, trig.Array); err != nil {
				return err
			}
		}
		if trig.ReplaySeed != "" {
			if err := pf("replay: %s\n", trig.ReplaySeed); err != nil {
				return err
			}
		}
	} else {
		if err := pf("trigger: none (bare crash capture)\n"); err != nil {
			return err
		}
	}

	devs, zones := b.suspects()
	if err := writeSuspects(w, "suspect devices", "dev", devs); err != nil {
		return err
	}
	if err := writeSuspects(w, "suspect zones", "zone", zones); err != nil {
		return err
	}

	if err := pf("-- timeline (%d spans, %d journal events) --\n",
		len(b.Spans), len(b.Events)); err != nil {
		return err
	}
	for _, e := range b.timeline() {
		if err := pf("  [%12v] %s\n", time.Duration(e.t), e.text); err != nil {
			return err
		}
	}

	deltas := b.metricDeltas()
	if err := pf("-- metric deltas (retained window -> freeze) --\n"); err != nil {
		return err
	}
	for _, d := range deltas {
		if err := pf("  %-44s %+d\n", d.name, d.delta); err != nil {
			return err
		}
	}
	return pf("-- retention: %d/%d spans kept, %d journal events dropped --\n",
		len(b.Spans), b.SpansTotal, b.EventsDropped)
}

// suspects ranks devices and zones by accumulated evidence: erroring
// device sub-spans weigh heaviest, then the slowest sub-span of each
// retained tree, then state-transition journal events. The trigger's
// own coordinates pin their suspect to the top.
func (b *BlackBox) suspects() (devs, zones []suspectScore) {
	dm := map[int]*suspectScore{}
	zm := map[int]*suspectScore{}
	get := func(m map[int]*suspectScore, id int) *suspectScore {
		s := m[id]
		if s == nil {
			s = &suspectScore{id: id}
			m[id] = s
		}
		return s
	}

	var walk func(sd *SpanDump)
	walk = func(sd *SpanDump) {
		// Charge the slowest device child of each node and any erroring
		// device child.
		slowest, slowestDur := -1, int64(-1)
		for i := range sd.Children {
			c := &sd.Children[i]
			if c.Dev >= 0 {
				if d := c.EndNs - c.StartNs; d > slowestDur {
					slowest, slowestDur = c.Dev, d
				}
				if c.Err != "" {
					s := get(dm, c.Dev)
					s.errSpans++
					s.score += 100
				}
			}
			walk(c)
		}
		if slowest >= 0 {
			s := get(dm, slowest)
			s.slowSpans++
			s.score += 10
		}
	}
	for i := range b.Spans {
		walk(&b.Spans[i])
	}

	for _, e := range b.Events {
		var wgt int64
		switch e.Type {
		case "degraded":
			wgt = 100
		case "relocation":
			wgt = 20
		case "zone-reset":
			wgt = 5
		case "gc":
			wgt = 1
		default:
			continue
		}
		if e.Src >= 0 {
			s := get(dm, e.Src)
			s.events++
			s.score += wgt
		}
		if e.Zone >= 0 {
			s := get(zm, e.Zone)
			s.events++
			s.score += wgt
		}
	}

	if t := b.Trigger; t != nil {
		if t.Dev >= 0 {
			get(dm, t.Dev).score += 1000
		}
		if t.Zone >= 0 {
			get(zm, t.Zone).score += 1000
		}
	}

	rank := func(m map[int]*suspectScore) []suspectScore {
		out := make([]suspectScore, 0, len(m))
		for _, s := range m {
			out = append(out, *s)
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].score != out[j].score {
				return out[i].score > out[j].score
			}
			return out[i].id < out[j].id
		})
		if len(out) > 5 {
			out = out[:5]
		}
		return out
	}
	return rank(dm), rank(zm)
}

func writeSuspects(w io.Writer, title, unit string, list []suspectScore) error {
	if _, err := fmt.Fprintf(w, "-- %s --\n", title); err != nil {
		return err
	}
	if len(list) == 0 {
		_, err := fmt.Fprintf(w, "  (no evidence)\n")
		return err
	}
	for i, s := range list {
		_, err := fmt.Fprintf(w, "  %d. %s %-3d score %-5d (slow-spans %d, errors %d, events %d)\n",
			i+1, unit, s.id, s.score, s.slowSpans, s.errSpans, s.events)
		if err != nil {
			return err
		}
	}
	return nil
}

// timeline merges the retained spans and journal events into one
// chronological stream. Ties sort events before spans, then by journal
// sequence / span start order — all total, so the rendering is stable.
func (b *BlackBox) timeline() []timelineEntry {
	out := make([]timelineEntry, 0, len(b.Spans)+len(b.Events))
	for _, e := range b.Events {
		out = append(out, timelineEntry{
			t: e.TNs, kind: 0, seq: e.Seq, text: formatEvent(e),
		})
	}
	for i := range b.Spans {
		sd := &b.Spans[i]
		out = append(out, timelineEntry{
			t: sd.StartNs, kind: 1, seq: uint64(i), text: formatSpan(sd),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		a, c := out[i], out[j]
		if a.t != c.t {
			return a.t < c.t
		}
		if a.kind != c.kind {
			return a.kind < c.kind
		}
		return a.seq < c.seq
	})
	return out
}

func formatEvent(e EventDump) string {
	src := "logical"
	if e.Src >= 0 {
		src = fmt.Sprintf("dev %d", e.Src)
	}
	s := fmt.Sprintf("event %-14s %s", e.Type, src)
	if e.Zone >= 0 {
		s += fmt.Sprintf(" zone %d", e.Zone)
	}
	return s + fmt.Sprintf(" a=%d b=%d c=%d d=%d", e.A, e.B, e.C, e.D)
}

func formatSpan(sd *SpanDump) string {
	s := fmt.Sprintf("span  %-14s lba=%d bytes=%d dur=%v",
		sd.Op, sd.LBA, sd.Bytes, time.Duration(sd.EndNs-sd.StartNs))
	if sd.Err != "" {
		s += " err=" + sd.Err
	}
	if n := len(sd.Children); n > 0 {
		s += fmt.Sprintf(" subs=%d", n)
	}
	return s
}

// metricDelta is one series' change across the retained window.
type metricDelta struct {
	name  string
	delta int64
}

// metricDeltas computes, for every retained series, last-sample minus
// first-sample — the change across the window the ring still covers,
// which ends at the freeze instant. Zero deltas are elided; order is by
// name (series are already name-sorted in the box).
func (b *BlackBox) metricDeltas() []metricDelta {
	var out []metricDelta
	for _, s := range b.Series {
		if len(s.Samples) == 0 {
			continue
		}
		d := s.Samples[len(s.Samples)-1].V - s.Samples[0].V
		if d == 0 {
			continue
		}
		out = append(out, metricDelta{name: s.Name, delta: d})
	}
	return out
}
