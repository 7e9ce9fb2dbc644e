package volmgr

import (
	"time"

	"raizn/internal/obs"
	"raizn/internal/stats"
)

// TenantConfig describes one tenant's share and limits.
type TenantConfig struct {
	// ID names the tenant; it becomes the tenant label on metrics.
	ID string
	// Weight is the tenant's fair-share weight at dequeue (deficit
	// round robin). Zero means 1.
	Weight int
	// RateSectorsPerSec is a token-bucket throughput ceiling in sectors
	// per second of virtual time. Zero means unlimited.
	RateSectorsPerSec int64
	// BurstSectors is the bucket capacity. Zero picks one second of
	// rate (or nothing when unlimited).
	BurstSectors int64
}

func (c TenantConfig) withDefaults() TenantConfig {
	if c.Weight <= 0 {
		c.Weight = 1
	}
	if c.BurstSectors == 0 {
		c.BurstSectors = c.RateSectorsPerSec
	}
	return c
}

// tokenBucket is a virtual-time token bucket. rate 0 disables it.
type tokenBucket struct {
	rate   float64 // tokens per second of virtual time
	burst  float64
	tokens float64
	last   time.Duration
}

func newBucket(rate, burst int64, now time.Duration) tokenBucket {
	b := tokenBucket{rate: float64(rate), burst: float64(burst), last: now}
	b.tokens = b.burst // start full: the first burst is free
	return b
}

func (b *tokenBucket) refill(now time.Duration) {
	if b.rate == 0 || now <= b.last {
		return
	}
	b.tokens += b.rate * (now - b.last).Seconds()
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = now
}

// eta returns how long until n tokens are available (0 = now). A
// request larger than the bucket capacity is admitted once the bucket
// is full; take then drives the balance negative, which delays the
// following requests enough to keep the long-run rate honest.
func (b *tokenBucket) eta(n float64, now time.Duration) time.Duration {
	if b.rate == 0 {
		return 0
	}
	if n > b.burst {
		n = b.burst
	}
	b.refill(now)
	if b.tokens >= n {
		return 0
	}
	d := time.Duration((n - b.tokens) / b.rate * float64(time.Second))
	if d < time.Nanosecond {
		d = time.Nanosecond
	}
	return d
}

func (b *tokenBucket) take(n float64, now time.Duration) {
	if b.rate == 0 {
		return
	}
	b.refill(now)
	b.tokens -= n // may go negative for over-burst requests; see eta
}

// tenant is the engine-side state of one tenant: its FIFO queue, DRR
// deficit, token bucket, and metric handles. All mutable fields are
// guarded by the engine mutex.
type tenant struct {
	cfg     TenantConfig
	q       []*request
	deficit int64
	bytesTB tokenBucket

	accepted       *obs.Counter
	shed           *obs.Counter
	completedOps   *obs.Counter
	completedBytes *obs.Counter
	errored        *obs.Counter
	lat            *stats.Histogram // submit -> completion (queue + service)
	queueDelay     *stats.Histogram // submit -> array issue

	// perArray attributes completions to the hosting array. Not a
	// metric: incident forensics reads it to rank suspect arrays.
	perArray map[string]*arrayAgg
}

// arrayAgg accumulates one tenant's completions against one hosted
// array — the raw material for incident attribution.
type arrayAgg struct {
	ops    int64
	errs   int64
	latSum time.Duration
}

// tokenETA returns how long until the tenant's bucket admits r.
func (t *tenant) tokenETA(r *request, now time.Duration) time.Duration {
	return t.bytesTB.eta(float64(r.sectors), now)
}

func (t *tenant) takeTokens(r *request, now time.Duration) {
	t.bytesTB.take(float64(r.sectors), now)
}

// TenantStats is a snapshot of one tenant's lifetime counters.
type TenantStats struct {
	ID             string
	Weight         int
	Accepted       int64
	Shed           int64
	CompletedOps   int64
	CompletedBytes int64
	Errored        int64
	Latency        *stats.Histogram // snapshot
	QueueDelay     *stats.Histogram // snapshot
}

// JainIndex computes Jain's fairness index over per-tenant allocations:
// (Σx)² / (n·Σx²), 1.0 for a perfectly even split, 1/n when one tenant
// gets everything. Zero-length input returns 0.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}
