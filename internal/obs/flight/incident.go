package flight

import (
	"fmt"
	"io"
	"sort"
	"time"

	"raizn/internal/obs"
)

// TriggerKind classifies what froze the recorder.
type TriggerKind int

const (
	// TrigSlowIO: the tail sampler kept requests far above the
	// running p99.
	TrigSlowIO TriggerKind = iota
	// TrigSLOBreach: a tenant's latency SLO alarm fired.
	TrigSLOBreach
	// TrigDeviceHealth: a device health transition (suspect/failed).
	TrigDeviceHealth
	// TrigOracle: the chaos recovery oracle found a contract violation.
	TrigOracle
)

var trigNames = [...]string{"slow-io", "slo-breach", "device-health", "oracle-violation"}

func (k TriggerKind) String() string {
	if int(k) < len(trigNames) {
		return trigNames[k]
	}
	return "trigger?"
}

// Trigger describes the incident that froze the recorder.
type Trigger struct {
	Kind   TriggerKind
	TNs    int64 // the freeze instant; Incident sets it
	Detail string
	// Dev/Zone are the trigger's own suspect coordinates when it has
	// them (a slow-IO trigger knows the slowed device, the oracle knows
	// the violated zone); -1 when unknown. They seed the suspect ranking.
	Dev  int
	Zone int
	// Tenant/Array attribute a volmgr SLO breach.
	Tenant string
	Array  string
	// ReplaySeed reproduces the incident when running under chaos.
	ReplaySeed string
}

// Incident freezes the recorder (a final metric sample, the journal
// tail copied; later spans and polls are ignored) and files trig as its
// trigger, stamped with the freeze instant. It returns the frozen
// recorder, whose WriteReport renders the incident. A recorder frozen
// without a trigger, such as a Snapshot, adopts trig; one already filed
// keeps its first trigger.
func (r *Recorder) Incident(trig Trigger) *Recorder {
	r.freeze()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.trigger == nil {
		trig.TNs = int64(r.frozenAt)
		r.trigger = &trig
	}
	return r
}

// Trigger returns the trigger the recorder was filed under, or nil.
func (r *Recorder) Trigger() *Trigger {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.trigger
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

// WriteReport renders the frozen recorder as the deterministic incident
// report: trigger, per-device and per-zone suspect ranking, the merged
// timeline of spans and journal events, and the metric deltas across
// the retained window up to the freeze instant. Two recorders frozen
// with equal content render byte-identically. A live recorder renders
// what it holds, with no journal tail; render its Snapshot instead.
func (r *Recorder) WriteReport(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	spans := r.spansLocked()
	pf := func(format string, args ...interface{}) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	if err := pf("=== incident report (raizn-blackbox/v1) ===\n"); err != nil {
		return err
	}
	if r.cfg.Label != "" {
		if err := pf("label: %s\n", r.cfg.Label); err != nil {
			return err
		}
	}
	if err := pf("frozen at: %v\n", r.frozenAt); err != nil {
		return err
	}
	if trig := r.trigger; trig != nil {
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

	devs, zones := suspects(spans, r.events, r.trigger)
	if err := writeSuspects(w, "suspect devices", "dev", devs); err != nil {
		return err
	}
	if err := writeSuspects(w, "suspect zones", "zone", zones); err != nil {
		return err
	}

	if err := pf("-- timeline (%d spans, %d journal events) --\n",
		len(spans), len(r.events)); err != nil {
		return err
	}
	for _, e := range timeline(spans, r.events) {
		if err := pf("  [%12v] %s\n", time.Duration(e.t), e.text); err != nil {
			return err
		}
	}

	if err := pf("-- metric deltas (retained window -> freeze) --\n"); err != nil {
		return err
	}
	for _, d := range r.metricDeltasLocked() {
		if err := pf("  %-44s %+d\n", d.name, d.delta); err != nil {
			return err
		}
	}
	return pf("-- retention: %d/%d spans kept, %d journal events dropped --\n",
		len(spans), r.spanTot, r.evDrop)
}

// suspects ranks devices and zones by accumulated evidence: erroring
// device sub-spans weigh heaviest, then the slowest sub-span of each
// retained tree, then state-transition journal events. The trigger's
// own coordinates pin their suspect to the top.
func suspects(spans []*obs.Span, events []obs.Event, trig *Trigger) (devs, zones []suspectScore) {
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

	var walk func(sp *obs.Span)
	walk = func(sp *obs.Span) {
		// Charge the slowest device child of each node and any erroring
		// device child.
		slowest, slowestDur := -1, time.Duration(-1)
		for _, c := range sp.Children() {
			if c.Dev >= 0 {
				if d := spanDur(c); d > slowestDur {
					slowest, slowestDur = c.Dev, d
				}
				if c.Err() != nil {
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
	for _, sp := range spans {
		walk(sp)
	}

	for _, e := range events {
		var wgt int64
		switch e.Type {
		case obs.EvDegraded:
			wgt = 100
		case obs.EvRelocation:
			wgt = 20
		case obs.EvZoneReset:
			wgt = 5
		case obs.EvGC:
			wgt = 1
		default:
			continue
		}
		if e.Src >= 0 {
			s := get(dm, int(e.Src))
			s.events++
			s.score += wgt
		}
		if e.Zone >= 0 {
			s := get(zm, int(e.Zone))
			s.events++
			s.score += wgt
		}
	}

	if t := trig; t != nil {
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
func timeline(spans []*obs.Span, events []obs.Event) []timelineEntry {
	out := make([]timelineEntry, 0, len(spans)+len(events))
	for _, e := range events {
		out = append(out, timelineEntry{
			t: int64(e.T), kind: 0, seq: e.Seq, text: formatEvent(e),
		})
	}
	for i, sp := range spans {
		out = append(out, timelineEntry{
			t: int64(sp.Start()), kind: 1, seq: uint64(i), text: formatSpan(sp),
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

func formatEvent(e obs.Event) string {
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

func formatSpan(sp *obs.Span) string {
	s := fmt.Sprintf("span  %-14s lba=%d bytes=%d dur=%v",
		sp.Op, sp.LBA, sp.Bytes, spanDur(sp))
	if err := sp.Err(); err != nil {
		s += " err=" + err.Error()
	}
	if n := len(sp.Children()); n > 0 {
		s += fmt.Sprintf(" subs=%d", n)
	}
	return s
}

// spanDur is a span's end minus its start; an unended span counts its
// end as 0.
func spanDur(sp *obs.Span) time.Duration {
	end, _ := sp.EndTime()
	return end - sp.Start()
}

// metricDelta is one series' change across the retained window.
type metricDelta struct {
	name  string
	delta int64
}

// metricDeltasLocked computes, for every retained series, last-sample
// minus first-sample — the change across the window the ring still
// covers, which ends at the freeze instant. Zero deltas are elided;
// order is by name.
func (r *Recorder) metricDeltasLocked() []metricDelta {
	names := make([]string, 0, len(r.series))
	for k := range r.series {
		names = append(names, k)
	}
	sort.Strings(names)
	var out []metricDelta
	for _, k := range names {
		s := retained(r.series[k])
		if len(s) == 0 {
			continue
		}
		if d := s[len(s)-1].V - s[0].V; d != 0 {
			out = append(out, metricDelta{name: k, delta: d})
		}
	}
	return out
}
