// Package flight is the black-box flight recorder: an always-on,
// bounded collector that turns the three volatile telemetry streams —
// the metrics registry, the tracer's root spans, and the event journal —
// into a post-mortem artifact. It continuously samples every registered
// metric family into ring-buffered time series, tail-samples span trees
// (only requests above a rolling p99, erroring, or on the degraded path
// are kept — the fast path stays allocation-free, like the nil-span
// discipline), and captures the journal tail when frozen. Its owner
// takes a frozen copy (see Snapshot) when an incident happens — the
// chaos harness at a simulated power cut — and the incident engine (see
// Incident) freezes the recorder on a trigger and renders a
// deterministic merged-timeline report.
//
// Everything is timestamped on the virtual clock and driven lazily —
// sampling happens when a finished span crosses a sample-interval
// boundary or when the owner calls Poll — so the recorder adds no
// goroutines and never perturbs the simulation's schedule.
package flight

import (
	"time"

	"sync"

	"raizn/internal/obs"
	"raizn/internal/stats"
	"raizn/internal/vclock"
)

// The recorder's fixed sizes. Samples are stamped at multiples of
// sampleInterval so two runs of the same seed sample at identical
// instants; the rings overwrite their oldest entry.
const (
	sampleInterval = time.Millisecond
	seriesCapacity = 64  // samples retained per metric series
	spanCapacity   = 64  // tail-sampled span trees retained
	journalTail    = 256 // journal events captured at freeze
)

// Config wires a Recorder to one array's telemetry.
type Config struct {
	// Clock is the virtual clock; required.
	Clock *vclock.Clock
	// Registry is sampled into time series. Nil records no series.
	Registry *obs.Registry
	// Journal supplies the event tail captured at freeze time. Optional.
	Journal *obs.Journal
	// Label identifies the array/volume in reports.
	Label string
	// Degraded, when set, reports whether the array is currently on a
	// degraded path; spans completing while true are always kept.
	Degraded func() bool
	// Multiple of the rolling per-op p99 a span must exceed to be
	// tail-sampled. Default 1 (anything above the p99).
	Multiple float64
	// MinSamples is the per-op warmup before latency-based tail
	// sampling starts. Default 64.
	MinSamples uint64
}

// sample is one point of a metric time series.
type sample struct {
	TNs int64
	V   int64
}

// series is one metric's bounded sample ring.
type series struct {
	ring  []sample
	pos   int
	total uint64
}

// Recorder is the flight recorder. It implements obs.SpanObserver;
// attach with Tracer.SetObserver. All methods are safe for concurrent
// use by simulated goroutines.
type Recorder struct {
	cfg Config

	mu       sync.Mutex
	frozen   bool
	frozenAt time.Duration
	trigger  *Trigger
	lastTick time.Duration
	series   map[string]*series
	hists    [obs.NumOps]*stats.Histogram
	spans    []*obs.Span
	spanPos  int
	spanTot  uint64
	events   []obs.Event // journal tail, copied at freeze
	evDrop   uint64
}

// New returns a live recorder. The caller attaches it to a tracer with
// tracer.SetObserver(rec); until then only Poll-driven metric sampling
// runs.
func New(cfg Config) *Recorder {
	if cfg.Clock == nil {
		panic("flight: Config.Clock is required")
	}
	if cfg.Multiple <= 0 {
		cfg.Multiple = 1
	}
	if cfg.MinSamples == 0 {
		cfg.MinSamples = 64
	}
	r := &Recorder{
		cfg:      cfg,
		lastTick: -1,
		series:   make(map[string]*series),
		spans:    make([]*obs.Span, spanCapacity),
	}
	for i := range r.hists {
		r.hists[i] = stats.NewHistogram()
	}
	return r
}

// ObserveSpan feeds one finished root span: it is judged for tail
// sampling against the rolling p99 of the spans BEFORE it, and its
// completion drives the lazy metric sampler. Implements
// obs.SpanObserver.
func (r *Recorder) ObserveSpan(s *obs.Span) {
	if r == nil {
		return
	}
	lat := s.Duration()
	end := s.Start() + lat
	erred := s.Err() != nil
	degraded := r.cfg.Degraded != nil && r.cfg.Degraded()
	r.mu.Lock()
	if r.frozen {
		r.mu.Unlock()
		return
	}
	h := r.hists[int(s.Op)%len(r.hists)]
	keep := erred || degraded ||
		(h.Count() >= r.cfg.MinSamples &&
			float64(lat) > r.cfg.Multiple*float64(h.Percentile(99)))
	h.Record(lat)
	if keep {
		r.spans[r.spanPos] = s
		r.spanPos = (r.spanPos + 1) % len(r.spans)
		r.spanTot++
	}
	r.maybeSampleLocked(end)
	r.mu.Unlock()
}

// Spans returns the span trees the tail sampler retains, oldest first.
func (r *Recorder) Spans() []*obs.Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spansLocked()
}

// spansLocked returns the span ring's entries oldest-first, in a new
// slice.
func (r *Recorder) spansLocked() []*obs.Span {
	if r.spanTot < uint64(len(r.spans)) {
		return append([]*obs.Span(nil), r.spans[:r.spanTot]...)
	}
	return append(append([]*obs.Span(nil), r.spans[r.spanPos:]...), r.spans[:r.spanPos]...)
}

// Poll takes a metric sample if a sample-interval boundary has been
// crossed since the last one. Owners with phases of no span traffic
// (bench loops, chaos op boundaries) call it to keep the series moving.
func (r *Recorder) Poll() {
	if r == nil {
		return
	}
	now := r.cfg.Clock.Now()
	r.mu.Lock()
	if !r.frozen {
		r.maybeSampleLocked(now)
	}
	r.mu.Unlock()
}

// maybeSampleLocked samples the registry when now has crossed a new
// sample-interval boundary. The sample is stamped with the boundary
// instant — floor(now/interval)*interval — so sample times are a pure
// function of the virtual clock, not of which span happened to cross.
func (r *Recorder) maybeSampleLocked(now time.Duration) {
	tick := now - now%sampleInterval
	if tick <= r.lastTick && r.lastTick >= 0 {
		return
	}
	r.lastTick = tick
	r.sampleLocked(tick)
}

// sampleLocked appends one point per registered metric series at time t.
// Histograms contribute two derived series, <name>/count and
// <name>/p99_ns. Gauge funcs are evaluated here (outside any component
// lock that matters: ObserveSpan runs at root-span completion and Poll
// from owner code, never under a device mutex).
func (r *Recorder) sampleLocked(t time.Duration) {
	if r.cfg.Registry == nil {
		return
	}
	snap := r.cfg.Registry.Snapshot()
	for k, v := range snap.Counters {
		r.appendLocked(k, t, v)
	}
	for k, v := range snap.Gauges {
		r.appendLocked(k, t, v)
	}
	for k, h := range snap.Histograms {
		r.appendLocked(k+"/count", t, int64(h.Count))
		r.appendLocked(k+"/p99_ns", t, int64(h.P99))
	}
}

func (r *Recorder) appendLocked(name string, t time.Duration, v int64) {
	se := r.series[name]
	if se == nil {
		se = &series{ring: make([]sample, seriesCapacity)}
		r.series[name] = se
	}
	se.ring[se.pos] = sample{TNs: int64(t), V: v}
	se.pos = (se.pos + 1) % len(se.ring)
	se.total++
}

// freeze stops the recorder at the current virtual time: a final metric
// sample is taken and the journal tail is copied. Idempotent — the first
// freeze wins; later spans and polls are ignored.
func (r *Recorder) freeze() {
	now := r.cfg.Clock.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.frozen {
		return
	}
	// Final sample at the freeze instant itself, even off-boundary:
	// the deltas in the incident report end exactly at the trigger.
	if now > r.lastTick || r.lastTick < 0 {
		r.lastTick = now
		r.sampleLocked(now)
	}
	r.frozen = true
	r.frozenAt = now
	r.events, r.evDrop = r.journalTail()
}

// journalTail copies the newest journalTail events of the attached
// journal and the count the journal itself dropped.
func (r *Recorder) journalTail() ([]obs.Event, uint64) {
	if r.cfg.Journal == nil {
		return nil, 0
	}
	evs := r.cfg.Journal.Events()
	if len(evs) > journalTail {
		evs = evs[len(evs)-journalTail:]
	}
	return evs, r.cfg.Journal.Dropped()
}

// Frozen reports whether the recorder has been frozen.
func (r *Recorder) Frozen() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.frozen
}

// Snapshot returns a frozen copy of the recorder: its series rings, its
// kept spans and the journal tail, as of now (or as of the freeze, when
// the recorder is frozen), with no trigger. The live recorder runs on.
//
// Snapshot takes no metric sample. A sample evaluates every GaugeFunc,
// and the chaos harness snapshots from a crash hook, which can fire
// while the component that fired it holds a lock one of its own gauges
// takes (the zraid engine's slot write holds the engine's mutex, which
// SlotTable.Stats needs).
func (r *Recorder) Snapshot() *Recorder {
	now := r.cfg.Clock.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	cp := &Recorder{
		cfg:      r.cfg,
		frozen:   true,
		frozenAt: r.frozenAt,
		series:   make(map[string]*series, len(r.series)),
		spans:    r.spansLocked(),
		spanTot:  r.spanTot,
		events:   r.events,
		evDrop:   r.evDrop,
	}
	if !r.frozen {
		cp.frozenAt = now
		cp.events, cp.evDrop = r.journalTail()
	}
	for k, se := range r.series {
		cp.series[k] = &series{ring: append([]sample(nil), se.ring...), pos: se.pos, total: se.total}
	}
	return cp
}

// retained returns a series ring's samples oldest-first.
func retained(se *series) []sample {
	if se.total < uint64(len(se.ring)) {
		return se.ring[:se.total]
	}
	return append(append([]sample(nil), se.ring[se.pos:]...), se.ring[:se.pos]...)
}
