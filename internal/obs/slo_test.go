package obs

import (
	"testing"
	"time"

	"raizn/internal/stats"
)

// fleet is a tenant population's latency histograms, the alarm's input.
type fleet map[string]*stats.Histogram

// feed records n identical latencies for tenant.
func (f fleet) feed(tenant string, lat time.Duration, n int) {
	h := f[tenant]
	if h == nil {
		h = stats.NewHistogram()
		f[tenant] = h
	}
	for i := 0; i < n; i++ {
		h.Record(lat)
	}
}

// alarm returns an alarm over f; later feeds are visible to it.
func (f fleet) alarm(cfg SLOConfig) *SLOAlarm {
	return NewSLOAlarm(cfg, func() map[string]*stats.Histogram { return f })
}

func TestSLOAlarmNilSafe(t *testing.T) {
	var a *SLOAlarm
	if got := a.Check(); got != nil {
		t.Errorf("nil alarm Check = %v, want nil", got)
	}
}

func TestSLOAlarmRelativeBar(t *testing.T) {
	f := fleet{}
	a := f.alarm(SLOConfig{Factor: 3, MinSamples: 10})
	// Three healthy tenants at 1ms contribute >99% of the population, so
	// the global p99 (the reference) stays at 1ms; a low-volume straggler
	// at 100ms sits far above Factor x that and must breach.
	for _, id := range []string{"a", "b", "c"} {
		f.feed(id, time.Millisecond, 1000)
	}
	f.feed("slow", 100*time.Millisecond, 20)
	breaches := a.Check()
	if len(breaches) != 1 || breaches[0].Tenant != "slow" {
		t.Fatalf("breaches = %+v, want exactly [slow]", breaches)
	}
	if b := breaches[0]; b.P99 <= b.Bar {
		t.Errorf("breach reports P99 %v <= Bar %v", b.P99, b.Bar)
	}
	// The reference is the p99 of the whole population in one histogram.
	all := stats.NewHistogram()
	for i := 0; i < 3000; i++ {
		all.Record(time.Millisecond)
	}
	for i := 0; i < 20; i++ {
		all.Record(100 * time.Millisecond)
	}
	if bar, ok := a.Bar(); !ok || bar != 3*all.Percentile(99) {
		t.Errorf("Bar = %v/%v, want 3 x the population p99 %v", bar, ok, all.Percentile(99))
	}
}

func TestSLOAlarmAbsoluteTarget(t *testing.T) {
	f := fleet{}
	a := f.alarm(SLOConfig{Factor: 2, TargetP99: time.Millisecond, MinSamples: 10})
	bar, ok := a.Bar()
	if !ok || bar != 2*time.Millisecond {
		t.Fatalf("Bar = %v/%v, want 2ms immediately (absolute objective)", bar, ok)
	}
	f.feed("fast", 500*time.Microsecond, 50)
	f.feed("slow", 5*time.Millisecond, 50)
	breaches := a.Check()
	if len(breaches) != 1 || breaches[0].Tenant != "slow" {
		t.Fatalf("breaches = %+v, want exactly [slow]", breaches)
	}
}

func TestSLOAlarmWarmup(t *testing.T) {
	f := fleet{}
	a := f.alarm(SLOConfig{Factor: 2, TargetP99: time.Millisecond, MinSamples: 64})
	f.feed("slow", 10*time.Millisecond, 63) // one short of warmup
	if got := a.Check(); len(got) != 0 {
		t.Fatalf("tenant breached during warmup: %+v", got)
	}
	f.feed("slow", 10*time.Millisecond, 1)
	if got := a.Check(); len(got) != 1 {
		t.Fatalf("warmed-up tenant did not breach: %+v", got)
	}
}

func TestSLOAlarmRelativeBarWarmup(t *testing.T) {
	f := fleet{}
	a := f.alarm(SLOConfig{MinSamples: 100})
	f.feed("only", 10*time.Millisecond, 99)
	if _, ok := a.Bar(); ok {
		t.Fatalf("relative bar available before the global warmup")
	}
	if got := a.Check(); got != nil {
		t.Fatalf("Check before warmup = %+v, want nil", got)
	}
	// The warmup counts the whole fleet: one sample from a second tenant
	// completes it, and the bar is 3 x the p99 of both tenants' samples.
	f.feed("other", time.Millisecond, 1)
	all := stats.NewHistogram()
	for i := 0; i < 99; i++ {
		all.Record(10 * time.Millisecond)
	}
	all.Record(time.Millisecond)
	if bar, ok := a.Bar(); !ok || bar != 3*all.Percentile(99) {
		t.Fatalf("Bar = %v/%v after the fleet's 100th sample, want %v", bar, ok, 3*all.Percentile(99))
	}
}

func TestSLOAlarmDeterministicOrder(t *testing.T) {
	f := fleet{}
	a := f.alarm(SLOConfig{Factor: 2, TargetP99: time.Microsecond, MinSamples: 1})
	// Same latency for every tenant: ties must break by name.
	for _, id := range []string{"zeta", "alpha", "mid"} {
		f.feed(id, time.Millisecond, 5)
	}
	got := a.Check()
	if len(got) != 3 {
		t.Fatalf("breaches = %+v, want 3", got)
	}
	for i, want := range []string{"alpha", "mid", "zeta"} {
		if got[i].Tenant != want {
			t.Errorf("breach[%d] = %s, want %s", i, got[i].Tenant, want)
		}
	}
}
