package obs

import (
	"encoding/json"
	"io"
	"time"
)

// HistSnapshot is a histogram's exported summary.
type HistSnapshot struct {
	Count uint64        `json:"count"`
	Min   time.Duration `json:"min_ns"`
	Max   time.Duration `json:"max_ns"`
	Mean  time.Duration `json:"mean_ns"`
	P50   time.Duration `json:"p50_ns"`
	P90   time.Duration `json:"p90_ns"`
	P99   time.Duration `json:"p99_ns"`
	P999  time.Duration `json:"p999_ns"`
}

// Snapshot is a point-in-time copy of a registry, safe to serialize
// with no further locking.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]int64        `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// Snapshot captures every registered metric, evaluating gauge funcs.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	funcs := make(map[string]func() int64, len(r.gaugeFuncs))
	for k, v := range r.gaugeFuncs {
		funcs[k] = v
	}
	hists := make(map[string]HistSnapshot, len(r.hists))
	for k, h := range r.hists {
		hs := h.Snapshot()
		hists[k] = HistSnapshot{
			Count: hs.Count(), Min: hs.Min(), Max: hs.Max(), Mean: hs.Mean(),
			P50: hs.Percentile(50), P90: hs.Percentile(90),
			P99: hs.Percentile(99), P999: hs.Percentile(99.9),
		}
	}
	r.mu.Unlock()
	// Gauge funcs run outside the registry lock: they read component
	// state (device counters) that must not nest under r.mu.
	for k, v := range counters {
		s.Counters[k] = v.Load()
	}
	for k, v := range gauges {
		s.Gauges[k] = v.Load()
	}
	for k, fn := range funcs {
		s.Gauges[k] = fn()
	}
	s.Histograms = hists
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
