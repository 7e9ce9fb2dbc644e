package obs

import (
	"sync"
	"sync/atomic"

	"raizn/internal/stats"
)

// Counter is a monotonically increasing metric. It is a bare atomic so
// hot paths (the raizn write pipeline bumps several per request) pay
// one LOCK ADD and nothing else.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a settable instantaneous metric.
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Registry is a named metrics registry. Names follow the Prometheus
// convention: snake_case with a subsystem prefix (raizn_, zns_,
// blockdev_, scrub_), units spelled out (_bytes, _total, _seconds).
// Lookups are get-or-create, so two components registering the same
// name share the metric — deliberate, so per-device registrations
// aggregate unless the caller namespaces with an index.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	gaugeFuncs map[string]func() int64
	hists      map[string]*stats.Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		gaugeFuncs: make(map[string]func() int64),
		hists:      make(map[string]*stats.Histogram),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry hands back a detached counter so callers never nil-check.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return &Counter{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a pull-style gauge evaluated at snapshot time —
// the fit for lifetime counters a device already maintains internally.
// Re-registering a name replaces the function.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gaugeFuncs[name] = fn
	r.mu.Unlock()
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *stats.Histogram {
	if r == nil {
		return stats.NewHistogram()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = stats.NewHistogram()
		r.hists[name] = h
	}
	return h
}
