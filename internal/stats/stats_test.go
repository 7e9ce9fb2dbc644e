package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Error("empty histogram should report zeros")
	}
	if h.Percentile(50) != 0 {
		t.Error("empty histogram percentile should be 0")
	}
}

func TestHistogramSingleValue(t *testing.T) {
	h := NewHistogram()
	h.Record(100 * time.Microsecond)
	if h.Count() != 1 {
		t.Errorf("Count = %d, want 1", h.Count())
	}
	if h.Min() != 100*time.Microsecond || h.Max() != 100*time.Microsecond {
		t.Errorf("min/max = %v/%v, want 100µs", h.Min(), h.Max())
	}
	p := h.Percentile(50)
	if rel := relErr(p, 100*time.Microsecond); rel > 0.05 {
		t.Errorf("p50 = %v, want ~100µs (rel err %f)", p, rel)
	}
}

func relErr(got, want time.Duration) float64 {
	return math.Abs(float64(got)-float64(want)) / float64(want)
}

func TestHistogramPercentiles(t *testing.T) {
	h := NewHistogram()
	// 1..1000 microseconds uniformly.
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	cases := []struct {
		p    float64
		want time.Duration
	}{
		{50, 500 * time.Microsecond},
		{90, 900 * time.Microsecond},
		{99, 990 * time.Microsecond},
	}
	for _, c := range cases {
		got := h.Percentile(c.p)
		if rel := relErr(got, c.want); rel > 0.06 {
			t.Errorf("p%.0f = %v, want ~%v (rel err %.3f)", c.p, got, c.want, rel)
		}
	}
	if got := h.Percentile(0); got != time.Microsecond {
		t.Errorf("p0 = %v, want exact min", got)
	}
	if got := h.Percentile(100); got != 1000*time.Microsecond {
		t.Errorf("p100 = %v, want exact max", got)
	}
}

func TestHistogramPercentileWithinRange(t *testing.T) {
	// Regression: Percentile used to return the rank bucket's geometric
	// midpoint unclamped, which for a single observation near a bucket
	// edge could fall below Min (or above Max) — an impossible value.
	h := NewHistogram()
	h.Record(100 * time.Microsecond)
	for p := 1.0; p <= 99; p++ {
		v := h.Percentile(p)
		if v < h.Min() || v > h.Max() {
			t.Fatalf("p%.0f = %v outside observed range [%v, %v]", p, v, h.Min(), h.Max())
		}
	}

	// Property: holds for any input set, not just single observations.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewHistogram()
		n := 1 + rng.Intn(100)
		for i := 0; i < n; i++ {
			h.Record(time.Duration(1 + rng.Int63n(int64(time.Minute))))
		}
		for p := 1.0; p <= 100; p += 3 {
			v := h.Percentile(p)
			if v < h.Min() || v > h.Max() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramMean(t *testing.T) {
	h := NewHistogram()
	h.Record(10 * time.Millisecond)
	h.Record(20 * time.Millisecond)
	h.Record(30 * time.Millisecond)
	if got := h.Mean(); got != 20*time.Millisecond {
		t.Errorf("Mean = %v, want 20ms", got)
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Record(time.Second)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Error("Reset did not clear histogram")
	}
}

func TestHistogramSnapshotIsolation(t *testing.T) {
	h := NewHistogram()
	h.Record(time.Millisecond)
	snap := h.Snapshot()
	h.Record(time.Second)
	if snap.Count() != 1 {
		t.Errorf("snapshot count = %d, want 1", snap.Count())
	}
	if h.Count() != 2 {
		t.Errorf("live count = %d, want 2", h.Count())
	}
}

// TestHistogramMergeEqualsUnion: histograms merged into one answer
// exactly as one histogram that recorded every observation, empty parts
// included.
func TestHistogramMergeEqualsUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	union := NewHistogram()
	merged := NewHistogram()
	parts := []*Histogram{NewHistogram(), NewHistogram(), NewHistogram(), NewHistogram()}
	for i, p := range parts[:3] {
		for j := 0; j < 500*(i+1); j++ {
			d := time.Duration(rng.ExpFloat64() * float64(time.Duration(i+1)*time.Millisecond))
			p.Record(d)
			union.Record(d)
		}
	}
	for _, p := range parts {
		merged.Merge(p)
	}
	if merged.Count() != union.Count() || merged.Min() != union.Min() || merged.Max() != union.Max() {
		t.Fatalf("merged count/min/max = %d/%v/%v, union %d/%v/%v",
			merged.Count(), merged.Min(), merged.Max(), union.Count(), union.Min(), union.Max())
	}
	for _, q := range []float64{50, 99, 99.9} {
		if m, u := merged.Percentile(q), union.Percentile(q); m != u {
			t.Errorf("p%v: merged %v, union %v", q, m, u)
		}
	}
}

func TestHistogramPercentileMonotonic(t *testing.T) {
	// Property: percentiles are non-decreasing in p for any input set.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewHistogram()
		n := 1 + rng.Intn(500)
		for i := 0; i < n; i++ {
			h.Record(time.Duration(1 + rng.Int63n(int64(time.Minute))))
		}
		prev := time.Duration(0)
		for p := 1.0; p <= 100; p += 7 {
			v := h.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramBoundedRelativeError(t *testing.T) {
	// Property: a recorded value's bucket representative is within ~5%.
	f := func(v uint32) bool {
		d := time.Duration(v)%time.Hour + 1
		h := NewHistogram()
		h.Record(d)
		got := h.Percentile(50)
		return relErr(got, d) < 0.06
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Add(100)
	c.Add(200)
	if c.Bytes() != 300 || c.Ops() != 2 {
		t.Errorf("got %d bytes / %d ops, want 300/2", c.Bytes(), c.Ops())
	}
	b, o := c.Reset()
	if b != 300 || o != 2 {
		t.Errorf("Reset returned %d/%d, want 300/2", b, o)
	}
	if c.Bytes() != 0 || c.Ops() != 0 {
		t.Error("Reset did not zero counter")
	}
}

func TestMiBps(t *testing.T) {
	if got := MiBps(1<<20, time.Second); got != 1.0 {
		t.Errorf("MiBps(1MiB, 1s) = %f, want 1", got)
	}
	if got := MiBps(123, 0); got != 0 {
		t.Errorf("MiBps with zero duration = %f, want 0", got)
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries(time.Second)
	s.Observe(1<<20, time.Millisecond)
	s.Observe(1<<20, 3*time.Millisecond)
	s.Tick(time.Second)
	s.Observe(4<<20, 2*time.Millisecond)
	s.Tick(2 * time.Second)
	s.Tick(3 * time.Second) // idle interval

	samples := s.Samples()
	if len(samples) != 3 {
		t.Fatalf("got %d samples, want 3", len(samples))
	}
	if samples[0].Throughput != 2.0 {
		t.Errorf("sample 0 throughput = %f, want 2", samples[0].Throughput)
	}
	if samples[0].Ops != 2 || samples[0].MeanLat != 2*time.Millisecond {
		t.Errorf("sample 0 = %+v", samples[0])
	}
	if samples[1].Throughput != 4.0 {
		t.Errorf("sample 1 throughput = %f, want 4", samples[1].Throughput)
	}
	if samples[2].Throughput != 0 || samples[2].Ops != 0 {
		t.Errorf("idle sample = %+v, want zeros", samples[2])
	}
}

func TestSeriesQuantile(t *testing.T) {
	s := NewSeries(time.Second)
	for i := 1; i <= 10; i++ {
		s.Observe(int64(i)<<20, time.Millisecond)
		s.Tick(time.Duration(i) * time.Second)
	}
	if q := s.Quantile(0); q != 1.0 {
		t.Errorf("Quantile(0) = %f, want 1", q)
	}
	if q := s.Quantile(1); q != 10.0 {
		t.Errorf("Quantile(1) = %f, want 10", q)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 1000; i++ {
				h.Record(time.Duration(i+1) * time.Microsecond)
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if h.Count() != 8000 {
		t.Errorf("Count = %d, want 8000", h.Count())
	}
}
