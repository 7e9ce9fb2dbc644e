package obs

import (
	"sort"
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

// SLOAlarm reports the tenants whose running p99 sits above Factor× a
// reference — the "which tenant is being starved or is dragging the
// fleet" question a multi-tenant front end has to answer continuously.
// It keeps no latencies of its own: Check and Bar read the per-tenant
// histograms its owner already records (volmgr's volmgr_request_latency),
// and the fleet reference is their union. Evaluation happens on demand,
// so the request path pays nothing for the alarm.
type SLOAlarm struct {
	cfg     SLOConfig
	tenants func() map[string]*stats.Histogram
}

// SLOBreach reports one tenant over its objective at Check time.
type SLOBreach struct {
	Tenant  string
	P99     time.Duration // the tenant's running p99
	Bar     time.Duration // the threshold it exceeded (Factor × reference)
	Samples uint64
}

// NewSLOAlarm returns an alarm over the histograms tenants returns,
// keyed by tenant id. tenants is called once per Check or Bar and must
// be safe to call concurrently with the recording of new latencies.
func NewSLOAlarm(cfg SLOConfig, tenants func() map[string]*stats.Histogram) *SLOAlarm {
	if cfg.Factor <= 0 {
		cfg.Factor = 3
	}
	if cfg.MinSamples == 0 {
		cfg.MinSamples = 64
	}
	return &SLOAlarm{cfg: cfg, tenants: tenants}
}

// Bar returns the current breach threshold: Factor × TargetP99 when an
// absolute objective is configured, else Factor × the running p99 across
// every tenant. ok is false while the reference is still warming up.
func (a *SLOAlarm) Bar() (bar time.Duration, ok bool) {
	return a.bar(a.tenants())
}

func (a *SLOAlarm) bar(hists map[string]*stats.Histogram) (time.Duration, bool) {
	if a.cfg.TargetP99 > 0 {
		return time.Duration(a.cfg.Factor * float64(a.cfg.TargetP99)), true
	}
	fleet := stats.NewHistogram()
	for _, h := range hists {
		fleet.Merge(h)
	}
	if fleet.Count() < a.cfg.MinSamples {
		return 0, false
	}
	return time.Duration(a.cfg.Factor * float64(fleet.Percentile(99))), true
}

// Check evaluates every tenant against the current bar and returns the
// breaching tenants sorted worst-first (ties broken by tenant name, so
// the report is deterministic).
func (a *SLOAlarm) Check() []SLOBreach {
	if a == nil {
		return nil
	}
	hists := a.tenants()
	bar, ok := a.bar(hists)
	if !ok {
		return nil
	}
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
