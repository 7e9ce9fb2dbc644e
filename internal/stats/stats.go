// Package stats provides the measurement primitives used by the benchmark
// harness: a log-bucketed latency histogram with percentile queries, a
// throughput counter, and a time-series sampler for per-interval
// throughput/latency traces (Figure 10 style plots).
package stats

import (
	"math"
	"sort"
	"sync"
	"time"
)

// Histogram is a log-bucketed latency histogram in the spirit of HDR
// histograms: buckets grow geometrically so relative error is bounded
// (~3.5% with 20 sub-buckets per octave) across nanoseconds to minutes.
// It is safe for concurrent use.
type Histogram struct {
	mu     sync.Mutex
	counts []uint64
	total  uint64
	sum    float64
	min    time.Duration
	max    time.Duration
}

const (
	subBuckets = 20 // sub-buckets per octave
	numOctaves = 50 // covers 1ns .. ~2^50ns (~13 days)
)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{
		counts: make([]uint64, subBuckets*numOctaves),
		min:    math.MaxInt64,
	}
}

func bucketIndex(d time.Duration) int {
	if d < 1 {
		d = 1
	}
	idx := int(math.Log2(float64(d)) * subBuckets)
	if idx >= subBuckets*numOctaves {
		idx = subBuckets*numOctaves - 1
	}
	return idx
}

func bucketValue(idx int) time.Duration {
	return time.Duration(math.Exp2(float64(idx)/subBuckets + 0.5/subBuckets))
}

// Record adds one latency observation.
func (h *Histogram) Record(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.counts[bucketIndex(d)]++
	h.total++
	h.sum += float64(d)
	if d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Mean returns the arithmetic mean of all observations, or 0 if empty.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	return time.Duration(h.sum / float64(h.total))
}

// Min returns the smallest observation, or 0 if empty.
func (h *Histogram) Min() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation, or 0 if empty.
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Percentile returns the latency at percentile p in [0,100], or 0 if the
// histogram is empty. The returned value is the representative value of
// the bucket containing the p-th observation.
func (h *Histogram) Percentile(p float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	rank := uint64(math.Ceil(p / 100 * float64(h.total)))
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			return h.clampLocked(bucketValue(i))
		}
	}
	return h.max
}

// clampLocked bounds a bucket's representative value to the observed
// range: the geometric midpoint of the rank bucket can fall outside
// [min, max] (e.g. a single observation near a bucket edge), and a
// percentile must never report a value no observation could have had.
func (h *Histogram) clampLocked(v time.Duration) time.Duration {
	if v < h.min {
		return h.min
	}
	if v > h.max {
		return h.max
	}
	return v
}

// Merge adds o's observations to h: afterwards h's count, min, max and
// percentiles are those of one histogram that recorded both sets.
func (h *Histogram) Merge(o *Histogram) {
	o = o.Snapshot() // never hold two histograms' locks at once
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
	h.sum += o.sum
	h.min = min(h.min, o.min)
	h.max = max(h.max, o.max)
}

// Reset discards all observations.
func (h *Histogram) Reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total = 0
	h.sum = 0
	h.min = math.MaxInt64
	h.max = 0
}

// Snapshot returns an immutable copy usable without further locking.
func (h *Histogram) Snapshot() *Histogram {
	h.mu.Lock()
	defer h.mu.Unlock()
	c := make([]uint64, len(h.counts))
	copy(c, h.counts)
	return &Histogram{counts: c, total: h.total, sum: h.sum, min: h.min, max: h.max}
}

// Counter accumulates bytes and operations for throughput reporting.
// It is safe for concurrent use.
type Counter struct {
	mu    sync.Mutex
	bytes int64
	ops   int64
}

// Add records one operation of n bytes.
func (c *Counter) Add(n int64) {
	c.mu.Lock()
	c.bytes += n
	c.ops++
	c.mu.Unlock()
}

// Bytes returns the accumulated byte count.
func (c *Counter) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Ops returns the accumulated operation count.
func (c *Counter) Ops() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ops
}

// Reset zeroes the counter and returns the previous (bytes, ops).
func (c *Counter) Reset() (bytes, ops int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	bytes, ops = c.bytes, c.ops
	c.bytes, c.ops = 0, 0
	return bytes, ops
}

// MiBps converts a byte count over a duration to MiB/s.
func MiBps(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / (1 << 20) / d.Seconds()
}

// Sample is one interval of a time series.
type Sample struct {
	T          time.Duration // end of the interval (virtual time)
	Throughput float64       // MiB/s over the interval
	Ops        int64         // operations completed in the interval
	MeanLat    time.Duration // mean latency of ops completed in the interval
	P99Lat     time.Duration
}

// Series collects per-interval samples of a running workload. The caller
// (which owns the virtual clock) invokes Tick at the end of each interval.
type Series struct {
	mu       sync.Mutex
	interval time.Duration
	counter  Counter
	hist     *Histogram
	samples  []Sample
}

// NewSeries returns a Series sampling at the given interval.
func NewSeries(interval time.Duration) *Series {
	return &Series{interval: interval, hist: NewHistogram()}
}

// Observe records one completed operation of n bytes with latency lat.
func (s *Series) Observe(n int64, lat time.Duration) {
	s.counter.Add(n)
	s.hist.Record(lat)
}

// Tick closes the current interval ending at virtual time t and starts a
// new one.
func (s *Series) Tick(t time.Duration) {
	bytes, ops := s.counter.Reset()
	s.mu.Lock()
	snap := s.hist
	s.hist = NewHistogram()
	s.samples = append(s.samples, Sample{
		T:          t,
		Throughput: MiBps(bytes, s.interval),
		Ops:        ops,
		MeanLat:    snap.Mean(),
		P99Lat:     snap.Percentile(99),
	})
	s.mu.Unlock()
}

// Samples returns the collected samples in time order.
func (s *Series) Samples() []Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Sample, len(s.samples))
	copy(out, s.samples)
	return out
}

// Quantile returns the q-th quantile (0..1) of the per-sample throughput,
// useful for summarizing a time series' floor and ceiling.
func (s *Series) Quantile(q float64) float64 {
	samples := s.Samples()
	if len(samples) == 0 {
		return 0
	}
	tputs := make([]float64, len(samples))
	for i, sm := range samples {
		tputs[i] = sm.Throughput
	}
	sort.Float64s(tputs)
	idx := int(q * float64(len(tputs)-1))
	return tputs[idx]
}
