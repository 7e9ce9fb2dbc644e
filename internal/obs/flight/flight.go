// Package flight is the black-box flight recorder: an always-on,
// bounded collector that turns the three volatile telemetry streams —
// the metrics registry, the tracer's root spans, and the event journal —
// into a post-mortem artifact. It continuously samples every registered
// metric family into ring-buffered time series, tail-samples span trees
// (only requests above a rolling p99, erroring, or on the degraded path
// are kept — the fast path stays allocation-free, like the nil-span
// discipline), and captures the journal tail when frozen. Its owner
// takes a snapshot (see BlackBox) when an incident happens — the chaos
// harness at a simulated power cut — and the incident engine (see
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

// Config wires a Recorder to one array's telemetry.
type Config struct {
	// Clock is the virtual clock; required.
	Clock *vclock.Clock
	// Registry is sampled into time series. Nil records no series.
	Registry *obs.Registry
	// Journal supplies the event tail captured at freeze time. Optional.
	Journal *obs.Journal
	// Label identifies the array/volume in reports and persisted boxes.
	Label string
	// Degraded, when set, reports whether the array is currently on a
	// degraded path; spans completing while true are always kept.
	Degraded func() bool
	// SampleInterval is the metric sampling period on the virtual
	// clock; sample timestamps are aligned to its multiples so two runs
	// of the same seed sample at identical instants. Default 1ms.
	SampleInterval time.Duration
	// SeriesCapacity bounds the samples retained per metric series
	// (ring; oldest overwritten). Default 64.
	SeriesCapacity int
	// SpanCapacity bounds the tail-sampled span trees retained
	// (ring; oldest overwritten). Default 64.
	SpanCapacity int
	// JournalTail bounds the journal events copied into the black box.
	// Default 256.
	JournalTail int
	// Multiple of the rolling per-op p99 a span must exceed to be
	// tail-sampled. Default 1 (anything above the p99).
	Multiple float64
	// MinSamples is the per-op warmup before latency-based tail
	// sampling starts. Default 64.
	MinSamples uint64
}

// Sample is one point of a metric time series.
type Sample struct {
	TNs int64 `json:"t_ns"`
	V   int64 `json:"v"`
}

// series is one metric's bounded sample ring.
type series struct {
	ring  []Sample
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
	if cfg.SampleInterval <= 0 {
		cfg.SampleInterval = time.Millisecond
	}
	if cfg.SeriesCapacity <= 0 {
		cfg.SeriesCapacity = 64
	}
	if cfg.SpanCapacity <= 0 {
		cfg.SpanCapacity = 64
	}
	if cfg.JournalTail <= 0 {
		cfg.JournalTail = 256
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
		spans:    make([]*obs.Span, cfg.SpanCapacity),
	}
	for i := range r.hists {
		r.hists[i] = stats.NewHistogram()
	}
	return r
}

// Label returns the recorder's configured label.
func (r *Recorder) Label() string { return r.cfg.Label }

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
	return append([]*obs.Span(nil), retainedSpans(r.spans, r.spanPos, r.spanTot)...)
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
	tick := now - now%r.cfg.SampleInterval
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
		se = &series{ring: make([]Sample, r.cfg.SeriesCapacity)}
		r.series[name] = se
	}
	se.ring[se.pos] = Sample{TNs: int64(t), V: v}
	se.pos = (se.pos + 1) % len(se.ring)
	se.total++
}

// Freeze stops the recorder at the current virtual time: a final metric
// sample is taken, the journal tail is copied, and the trigger (may be
// nil for a bare crash capture) is pinned. Idempotent — the first
// freeze wins; later spans and polls are ignored.
func (r *Recorder) Freeze(trig *Trigger) {
	if r == nil {
		return
	}
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
	r.trigger = trig
	if r.cfg.Journal != nil {
		evs := r.cfg.Journal.Events()
		if len(evs) > r.cfg.JournalTail {
			evs = evs[len(evs)-r.cfg.JournalTail:]
		}
		r.events = append([]obs.Event(nil), evs...)
		r.evDrop = r.cfg.Journal.Dropped()
	}
}

// Frozen reports whether the recorder has been frozen.
func (r *Recorder) Frozen() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.frozen
}

// Snapshot serializes the recorder's current state into a BlackBox.
// Works live (the journal tail is captured on the fly) or frozen.
func (r *Recorder) Snapshot() *BlackBox {
	now := r.cfg.Clock.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	b := &BlackBox{
		Schema:     SchemaV1,
		Label:      r.cfg.Label,
		Frozen:     r.frozen,
		FrozenAtNs: int64(now),
		Trigger:    r.trigger,
		SpansTotal: r.spanTot,
	}
	if r.frozen {
		b.FrozenAtNs = int64(r.frozenAt)
	}

	names := make([]string, 0, len(r.series))
	for k := range r.series {
		names = append(names, k)
	}
	sortStrings(names)
	for _, k := range names {
		se := r.series[k]
		sd := SeriesDump{Name: k, Samples: retained(se)}
		if se.total > uint64(len(sd.Samples)) {
			sd.Dropped = se.total - uint64(len(sd.Samples))
		}
		b.Series = append(b.Series, sd)
	}

	for _, s := range retainedSpans(r.spans, r.spanPos, r.spanTot) {
		b.Spans = append(b.Spans, dumpSpan(s))
	}

	evs := r.events
	drop := r.evDrop
	if !r.frozen && r.cfg.Journal != nil {
		evs = r.cfg.Journal.Events()
		if len(evs) > r.cfg.JournalTail {
			evs = evs[len(evs)-r.cfg.JournalTail:]
		}
		drop = r.cfg.Journal.Dropped()
	}
	for _, e := range evs {
		b.Events = append(b.Events, dumpEvent(e))
	}
	b.EventsDropped = drop
	return b
}

// retained returns a series ring's samples oldest-first.
func retained(se *series) []Sample {
	if se.total < uint64(len(se.ring)) {
		return append([]Sample(nil), se.ring[:se.total]...)
	}
	out := make([]Sample, 0, len(se.ring))
	out = append(out, se.ring[se.pos:]...)
	return append(out, se.ring[:se.pos]...)
}

// retainedSpans returns a span ring's entries oldest-first.
func retainedSpans(ring []*obs.Span, pos int, total uint64) []*obs.Span {
	if total < uint64(len(ring)) {
		return ring[:total]
	}
	out := make([]*obs.Span, 0, len(ring))
	out = append(out, ring[pos:]...)
	return append(out, ring[:pos]...)
}

// sortStrings is an insertion sort; series maps are small and this
// avoids importing sort for one call site.
func sortStrings(a []string) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j-1] > a[j]; j-- {
			a[j-1], a[j] = a[j], a[j-1]
		}
	}
}

func dumpSpan(s *obs.Span) SpanDump {
	end, _ := s.EndTime()
	d := SpanDump{
		Op:      s.Op.String(),
		Dev:     s.Dev,
		LBA:     s.LBA,
		Bytes:   s.Bytes,
		StartNs: int64(s.Start()),
		EndNs:   int64(end),
	}
	if err := s.Err(); err != nil {
		d.Err = err.Error()
	}
	for _, c := range s.Children() {
		d.Children = append(d.Children, dumpSpan(c))
	}
	return d
}

func dumpEvent(e obs.Event) EventDump {
	return EventDump{
		Seq: e.Seq, TNs: int64(e.T), Type: e.Type.String(),
		Src: int(e.Src), Zone: int(e.Zone),
		A: e.A, B: e.B, C: e.C, D: e.D,
	}
}
