package obs

import (
	"sort"
	"sync"
	"time"

	"raizn/internal/stats"
)

// SLOConfig tunes the per-tenant SLO alarm.
type SLOConfig struct {
	// Factor is the multiple of the reference p99 a tenant's running p99
	// must exceed to breach. The reference is TargetP99 when set,
	// otherwise the running p99 across all tenants. Default 3.
	Factor float64
	// TargetP99, when non-zero, is an absolute latency objective; the
	// breach bar becomes Factor*TargetP99 regardless of fleet behavior.
	TargetP99 time.Duration
	// MinSamples is the per-tenant warmup before a tenant can breach —
	// a cold p99 over a handful of samples flags everyone. Default 64.
	MinSamples uint64
}

// SLOAlarm is the slow-IO watchdog generalized to a tenant population:
// where the Watchdog flags individual requests far above the running
// p99, the alarm keeps a running latency histogram per tenant plus one
// across all tenants, and reports the tenants whose p99 sits above
// Factor× the reference — the "which tenant is being starved or is
// dragging the fleet" question a multi-tenant front end has to answer
// continuously. Observe is safe for concurrent use; evaluation happens
// on demand in Check so the hot path pays one histogram insert.
type SLOAlarm struct {
	cfg SLOConfig

	mu      sync.Mutex
	global  *stats.Histogram
	tenants map[string]*stats.Histogram
}

// SLOBreach reports one tenant over its objective at Check time.
type SLOBreach struct {
	Tenant  string
	P99     time.Duration // the tenant's running p99
	Bar     time.Duration // the threshold it exceeded (Factor × reference)
	Samples uint64
}

// NewSLOAlarm returns an empty alarm.
func NewSLOAlarm(cfg SLOConfig) *SLOAlarm {
	if cfg.Factor <= 0 {
		cfg.Factor = 3
	}
	if cfg.MinSamples == 0 {
		cfg.MinSamples = 64
	}
	return &SLOAlarm{
		cfg:     cfg,
		global:  stats.NewHistogram(),
		tenants: make(map[string]*stats.Histogram),
	}
}

// Observe feeds one completed-request latency for tenant. Nil-safe so
// callers can thread an optional alarm unconditionally.
func (a *SLOAlarm) Observe(tenant string, lat time.Duration) {
	if a == nil {
		return
	}
	a.mu.Lock()
	h, ok := a.tenants[tenant]
	if !ok {
		h = stats.NewHistogram()
		a.tenants[tenant] = h
	}
	a.mu.Unlock()
	h.Record(lat)
	a.global.Record(lat)
}

// Bar returns the current breach threshold: Factor × TargetP99 when an
// absolute objective is configured, else Factor × the running p99 across
// every tenant. ok is false while the reference is still warming up.
func (a *SLOAlarm) Bar() (bar time.Duration, ok bool) {
	if a.cfg.TargetP99 > 0 {
		return time.Duration(a.cfg.Factor * float64(a.cfg.TargetP99)), true
	}
	if a.global.Count() < a.cfg.MinSamples {
		return 0, false
	}
	return time.Duration(a.cfg.Factor * float64(a.global.Percentile(99))), true
}

// Check evaluates every tenant against the current bar and returns the
// breaching tenants sorted worst-first (ties broken by tenant name, so
// the report is deterministic).
func (a *SLOAlarm) Check() []SLOBreach {
	if a == nil {
		return nil
	}
	bar, ok := a.Bar()
	if !ok {
		return nil
	}
	a.mu.Lock()
	hists := make(map[string]*stats.Histogram, len(a.tenants))
	for t, h := range a.tenants {
		hists[t] = h
	}
	a.mu.Unlock()
	var out []SLOBreach
	for t, h := range hists {
		n := h.Count()
		if n < a.cfg.MinSamples {
			continue
		}
		if p99 := h.Percentile(99); p99 > bar {
			out = append(out, SLOBreach{Tenant: t, P99: p99, Bar: bar, Samples: n})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].P99 != out[j].P99 {
			return out[i].P99 > out[j].P99
		}
		return out[i].Tenant < out[j].Tenant
	})
	return out
}

// Tenants returns the observed tenant ids in sorted order.
func (a *SLOAlarm) Tenants() []string {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	out := make([]string, 0, len(a.tenants))
	for t := range a.tenants {
		out = append(out, t)
	}
	a.mu.Unlock()
	sort.Strings(out)
	return out
}
