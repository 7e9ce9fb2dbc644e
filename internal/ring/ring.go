// Package ring is an io_uring-style submission/completion ring in front of
// the simulated ZNS devices. A caller stages write SQEs (zns.CmdWrite, the
// one batched command) for each device of an array, the device drains the
// whole group per scheduling decision (one lock acquisition, one future
// slab — see zns.PrepareBatch), and every group of the batch shares ONE
// completion-walker goroutine that reaps the CQ through the vclock.Future
// machinery. Simulated per-command timing is
// identical to individual submission; only host-side fixed costs change.
// No layer of the stack submits through it: in paired runs of the canonical
// benchmark it cost more host time per op than direct device calls on
// every workload, and it remains only as the subject of the benchmark's
// ring probe.
//
// A Batch is single-use and single-goroutine: push SQEs, Flush each
// device group, harvest the futures, then Submit. The Set recycles batch
// storage once the walker has delivered the last completion.
package ring

import (
	"strconv"
	"sync"

	"raizn/internal/obs"
	"raizn/internal/stats"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// Set is the per-array ring set: one SQ/CQ pair per device slot plus
// shared drain metrics (batch/SQE counters, per-slot SQ depth gauges,
// virtual SQ-to-CQ latency histogram).
type Set struct {
	clk     *vclock.Clock
	depth   []*obs.Gauge // last drained group size, per device slot
	batches *obs.Counter // drained device groups
	sqes    *obs.Counter // SQEs drained
	lat     *stats.Histogram

	pool sync.Pool // *Batch
}

// NewSet builds a ring set for n device slots, registering its metrics
// (label, when non-empty, becomes the metrics' array label, matching
// raizn.Config.MetricsLabel).
func NewSet(clk *vclock.Clock, reg *obs.Registry, label string, n int) *Set {
	name := func(base string) string {
		if label == "" {
			return base
		}
		return obs.LabeledName(base, "array", label)
	}
	s := &Set{
		clk:     clk,
		depth:   make([]*obs.Gauge, n),
		batches: reg.Counter(name("ring_batches_total")),
		sqes:    reg.Counter(name("ring_sqes_total")),
		lat:     reg.Histogram(name("ring_sq_to_cq_us")),
	}
	for i := range s.depth {
		kv := []string{"dev", strconv.Itoa(i)}
		if label != "" {
			kv = append([]string{"array", label}, kv...)
		}
		s.depth[i] = reg.Gauge(obs.LabeledName("ring_sq_depth", kv...))
	}
	return s
}

// Batch stages one submission: SQEs pushed since the last Flush form the
// current device group. Not safe for concurrent use.
type Batch struct {
	set   *Set
	cmds  []zns.Cmd
	comps []zns.Completion
	start int // first SQE of the current (unflushed) device group
}

// Batch returns an empty pooled batch.
func (s *Set) Batch() *Batch {
	if b, ok := s.pool.Get().(*Batch); ok && b != nil {
		return b
	}
	return &Batch{set: s}
}

// Push stages one SQE for the current device group.
func (b *Batch) Push(cmd zns.Cmd) {
	b.cmds = append(b.cmds, cmd)
}

// Pending reports whether the current device group has staged SQEs.
func (b *Batch) Pending() bool { return b.start < len(b.cmds) }

// Flush drains the current device group into d (slot is d's position in
// the array, for the depth gauge): the device applies the whole group
// under one lock acquisition. It returns the drained SQEs with their
// outputs (futures, completion times) filled in; the
// returned slice is valid until Submit. Commands rejected at submit have
// Err set and a pre-completed future.
func (b *Batch) Flush(d *zns.Device, slot int) []zns.Cmd {
	group := b.cmds[b.start:]
	if len(group) == 0 {
		return nil
	}
	b.start = len(b.cmds)
	b.comps = d.PrepareBatch(group, b.comps)
	s := b.set
	s.batches.Inc()
	s.sqes.Add(int64(len(group)))
	if slot >= 0 && slot < len(s.depth) {
		s.depth[slot].Set(int64(len(group)))
	}
	now := s.clk.Now()
	for i := range group {
		if group[i].Err == nil {
			s.lat.Record(group[i].Done - now)
		}
	}
	return group
}

// Submit delivers every flushed group's completions through one walker
// goroutine and recycles the batch (which must not be used afterwards).
// Unflushed SQEs are discarded.
func (b *Batch) Submit() {
	comps := b.comps
	b.comps = nil
	b.cmds = b.cmds[:0]
	b.start = 0
	set := b.set
	zns.RunCompletions(set.clk, comps, func() {
		b.comps = comps[:0]
		set.pool.Put(b)
	})
}
