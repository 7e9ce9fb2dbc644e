// Package obs is the end-to-end IO observability subsystem: per-request
// tracing spans timestamped on the virtual clock, a named metrics
// registry the device models and the RAIZN layer register into, its JSON
// snapshot and critical-path analysis. Judging which
// requests were slow is the flight recorder's tail sampler
// (internal/obs/flight), attached as the tracer's SpanObserver.
//
// Tracing is strictly zero-cost when disabled: Tracer.Begin returns a
// nil *Span while the atomic enable flag is off, and every Span method
// is nil-receiver-safe, so the hot path threads span handles
// unconditionally without a single branch-per-field or allocation.
// The zero-allocation property is enforced by BenchmarkSubmitWrite* in
// internal/raizn plus the checked-in alloc baseline guard.
package obs

import (
	"sync"
	"sync/atomic"
	"time"

	"raizn/internal/vclock"
)

// Op classifies a span. Host-level ops (Write..Scrub) are roots created
// by the RAIZN layer; Dev* ops are children created per device sub-IO.
type Op uint8

const (
	OpWrite Op = iota
	OpRead
	OpReset
	OpFlush
	OpScrub
	OpDevWrite
	OpDevRead
	OpDevReset
	OpDevFinish
	OpDevFlush
	OpMDAppend
	numOps
)

// NumOps is the number of Op values; external samplers size per-op
// tables with it.
const NumOps = int(numOps)

var opNames = [numOps]string{
	"write", "read", "reset", "flush", "scrub",
	"dev-write", "dev-read", "dev-reset", "dev-finish", "dev-flush",
	"md-append",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "op?"
}

// Phase is a named timestamp within a span. Host spans mark the
// three-phase write pipeline (plan/compute/submit); device spans mark
// when the command reached the head of its pipe (Queue) and when the
// media transfer finished (Media) — completion-interrupt latency is the
// remainder up to the span's end.
type Phase uint8

const (
	PhasePlan Phase = iota
	PhaseCompute
	PhaseSubmit
	PhaseQueue
	PhaseMedia
	NumPhases
)

var phaseNames = [NumPhases]string{"plan", "compute", "submit", "queue", "media"}

func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "phase?"
}

// Span is one traced request (root) or sub-operation (child). All
// timestamps are virtual-clock offsets. The identifying fields are
// immutable after creation; everything recorded during the span's life
// is guarded by mu so device completions scheduled on other goroutines
// may finish children while the submitter is still attaching new ones.
type Span struct {
	tr     *Tracer
	parent *Span
	id     uint64

	Op    Op
	Dev   int // device index, -1 for host-level spans
	LBA   int64
	Bytes int64

	start time.Duration

	mu       sync.Mutex
	segs     int
	marks    [NumPhases]time.Duration
	markSet  uint8
	end      time.Duration
	ended    bool
	err      error
	children []*Span
}

// Tracer owns the enable flag, the bounded trace sink, and the span
// observer. The sink is sharded — spans hash to one of sinkShards
// fixed-size rings, each with its own mutex — which approximates a
// per-goroutine ring buffer: concurrent submitters almost always land
// on different shards, so recording a finished root span is one
// uncontended lock plus a slot store, and total retention is bounded.
type Tracer struct {
	clk      *vclock.Clock
	enabled  atomic.Bool
	nextID   atomic.Uint64
	shards   [sinkShards]sinkShard
	observer atomic.Pointer[SpanObserver]
}

// SpanObserver receives every finished root span, after the sink has
// stored it. Observers run on the completing goroutine and must not
// block; the flight recorder's tail sampler is the canonical
// implementation. The observer is only consulted when tracing is
// enabled — a disabled tracer never produces root spans, so an attached
// observer costs nothing on that path.
type SpanObserver interface {
	ObserveSpan(s *Span)
}

const sinkShards = 16

type sinkShard struct {
	mu   sync.Mutex
	ring []*Span
	pos  int
}

// Config sizes a Tracer.
type Config struct {
	// SinkCapacity bounds the number of retained root spans across all
	// shards. Default 4096. Oldest spans are overwritten.
	SinkCapacity int
}

// NewTracer returns a disabled tracer bound to the virtual clock.
func NewTracer(clk *vclock.Clock, cfg Config) *Tracer {
	if cfg.SinkCapacity <= 0 {
		cfg.SinkCapacity = 4096
	}
	per := (cfg.SinkCapacity + sinkShards - 1) / sinkShards
	t := &Tracer{clk: clk}
	for i := range t.shards {
		t.shards[i].ring = make([]*Span, per)
	}
	return t
}

// Enable turns tracing on; Begin starts returning live spans.
func (t *Tracer) Enable() { t.enabled.Store(true) }

// Disable turns tracing off. In-flight spans keep recording.
func (t *Tracer) Disable() { t.enabled.Store(false) }

// Enabled reports the atomic enable flag.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// SetObserver attaches o as the tracer's span observer (nil detaches).
// At most one observer is active; the last call wins.
func (t *Tracer) SetObserver(o SpanObserver) {
	if t == nil {
		return
	}
	if o == nil {
		t.observer.Store(nil)
		return
	}
	t.observer.Store(&o)
}

// Begin starts a root span, or returns nil when the tracer is nil or
// disabled — the nil span makes every downstream call a no-op.
func (t *Tracer) Begin(op Op, lba, bytes int64) *Span {
	if t == nil || !t.enabled.Load() {
		return nil
	}
	return &Span{
		tr: t, id: t.nextID.Add(1),
		Op: op, Dev: -1, LBA: lba, Bytes: bytes,
		start: t.clk.Now(),
	}
}

// record pushes a finished root span into its sink shard.
func (t *Tracer) record(s *Span) {
	sh := &t.shards[s.id%sinkShards]
	sh.mu.Lock()
	sh.ring[sh.pos] = s
	sh.pos = (sh.pos + 1) % len(sh.ring)
	sh.mu.Unlock()
	if ob := t.observer.Load(); ob != nil {
		(*ob).ObserveSpan(s)
	}
}

// Snapshot returns the retained root spans in submission order.
func (t *Tracer) Snapshot() []*Span {
	if t == nil {
		return nil
	}
	var out []*Span
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for _, s := range sh.ring {
			if s != nil {
				out = append(out, s)
			}
		}
		sh.mu.Unlock()
	}
	sortSpansByID(out)
	return out
}

// Reset drops all retained spans.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for j := range sh.ring {
			sh.ring[j] = nil
		}
		sh.pos = 0
		sh.mu.Unlock()
	}
}

func sortSpansByID(spans []*Span) {
	// Insertion sort: shards keep spans nearly ordered already and the
	// sink is small; avoids pulling in sort's interface boxing.
	for i := 1; i < len(spans); i++ {
		for j := i; j > 0 && spans[j-1].id > spans[j].id; j-- {
			spans[j-1], spans[j] = spans[j], spans[j-1]
		}
	}
}

// Child starts a sub-span under s, or returns nil when s is nil.
func (s *Span) Child(op Op, dev int, lba, bytes int64) *Span {
	if s == nil {
		return nil
	}
	c := &Span{
		tr: s.tr, parent: s, id: s.tr.nextID.Add(1),
		Op: op, Dev: dev, LBA: lba, Bytes: bytes,
		start: s.tr.clk.Now(),
	}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// Mark records phase p at the current virtual time.
func (s *Span) Mark(p Phase) {
	if s == nil {
		return
	}
	s.MarkAt(p, s.tr.clk.Now())
}

// MarkAt records phase p at virtual time t (device models know the
// exact scheduled pipe and media times before they elapse).
func (s *Span) MarkAt(p Phase, t time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.marks[p] = t
	s.markSet |= 1 << p
	s.mu.Unlock()
}

// SetSegs records how many scatter-gather segments a vectored device
// command carried (1 for a plain write).
func (s *Span) SetSegs(n int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.segs = n
	s.mu.Unlock()
}

// End completes the span at the current virtual time.
func (s *Span) End(err error) {
	if s == nil {
		return
	}
	s.EndAt(s.tr.clk.Now(), err)
}

// EndAt completes the span at virtual time t. Ending a root span hands
// it to the sink and the span observer; double-End is idempotent.
func (s *Span) EndAt(t time.Duration, err error) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.end = t
	s.err = err
	s.mu.Unlock()
	if s.parent == nil {
		s.tr.record(s)
	}
}

// Start returns the span's begin time on the virtual clock.
func (s *Span) Start() time.Duration { return s.start }

// EndTime returns the completion time and whether the span has ended.
func (s *Span) EndTime() (time.Duration, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.end, s.ended
}

// Duration returns end-start, or 0 if the span has not ended.
func (s *Span) Duration() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		return 0
	}
	return s.end - s.start
}

// Err returns the error the span ended with, if any.
func (s *Span) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Segs returns the recorded segment count (0 when never set).
func (s *Span) Segs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.segs
}

// MarkTime returns the timestamp of phase p and whether it was set.
func (s *Span) MarkTime(p Phase) (time.Duration, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.marks[p], s.markSet&(1<<p) != 0
}

// Children returns a copy of the span's child list.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}
