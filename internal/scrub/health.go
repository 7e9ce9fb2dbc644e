package scrub

import (
	"sync"
	"time"

	"raizn/internal/raizn"
	"raizn/internal/vclock"
)

// HealthState is a device's position in the health state machine.
type HealthState int

const (
	Healthy HealthState = iota
	Suspect             // error count crossed SuspectThreshold
	Failed              // error count crossed FailThreshold: device was auto-failed
)

func (h HealthState) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Failed:
		return "failed"
	}
	return "unknown"
}

// MonitorConfig configures a health Monitor.
type MonitorConfig struct {
	Clock  *vclock.Clock
	Volume *raizn.Volume
	// SuspectThreshold: read errors + detected corruptions at which a
	// device turns suspect. Zero disables the suspect state.
	SuspectThreshold int64
	// FailThreshold: count at which the device is auto-failed and the
	// rebuild hook fires. Zero disables auto-fail.
	FailThreshold int64
	// Interval between background polls.
	Interval time.Duration
	// OnFail, if set, runs (on a simulated goroutine) after the monitor
	// auto-fails a device — the auto-rebuild hook. It receives the
	// failed slot.
	OnFail func(dev int)
}

// Monitor tracks per-device health and auto-fails devices whose error
// counters cross the configured threshold. One device at most is
// auto-failed: with single parity, failing a second would lose data, so
// the monitor holds further transitions at Suspect while the array is
// degraded.
type Monitor struct {
	cfg MonitorConfig
	clk *vclock.Clock

	mu       sync.Mutex
	states   []HealthState
	stopping bool
	running  bool
	done     *vclock.Future
}

// NewMonitor builds a Monitor over the volume's devices.
func NewMonitor(cfg MonitorConfig) *Monitor {
	return &Monitor{
		cfg:    cfg,
		clk:    cfg.Clock,
		states: make([]HealthState, cfg.Volume.NumDevices()),
	}
}

// State returns device i's current health state.
func (m *Monitor) State(i int) HealthState {
	m.mu.Lock()
	defer m.mu.Unlock()
	if i < 0 || i >= len(m.states) {
		return Healthy
	}
	return m.states[i]
}

// Poll evaluates every device's counters once, applying state
// transitions and firing the auto-fail hook where warranted.
func (m *Monitor) Poll() {
	v := m.cfg.Volume
	var failed []int
	m.mu.Lock()
	for i := range m.states {
		re, corr := v.DeviceErrorCounters(i)
		e := re + corr
		switch {
		case m.cfg.FailThreshold > 0 && e >= m.cfg.FailThreshold && m.states[i] != Failed:
			if v.Degraded() >= 0 {
				// Single parity: a second failure would lose data.
				// Hold at suspect until the array is whole again.
				if m.states[i] == Healthy {
					m.states[i] = Suspect
				}
				continue
			}
			m.states[i] = Failed
			failed = append(failed, i)
		case m.cfg.SuspectThreshold > 0 && e >= m.cfg.SuspectThreshold && m.states[i] == Healthy:
			m.states[i] = Suspect
		}
	}
	m.mu.Unlock()

	for _, i := range failed {
		_ = v.FailDevice(i)
		if m.cfg.OnFail != nil {
			dev := i
			m.clk.Go(func() { m.cfg.OnFail(dev) })
		}
	}
}

// MarkReplaced resets device i's state to Healthy (after a successful
// rebuild onto a replacement).
func (m *Monitor) MarkReplaced(i int) {
	m.mu.Lock()
	if i >= 0 && i < len(m.states) {
		m.states[i] = Healthy
	}
	m.mu.Unlock()
}

// Start launches the background polling loop.
func (m *Monitor) Start() {
	m.mu.Lock()
	if m.running {
		m.mu.Unlock()
		return
	}
	m.running = true
	m.stopping = false
	m.done = m.clk.NewFuture()
	done := m.done
	m.mu.Unlock()

	interval := m.cfg.Interval
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	m.clk.Go(func() {
		for {
			m.mu.Lock()
			stopping := m.stopping
			m.mu.Unlock()
			if stopping {
				break
			}
			m.Poll()
			m.clk.Sleep(interval)
		}
		m.mu.Lock()
		m.running = false
		m.mu.Unlock()
		done.Complete(nil)
	})
}

// Stop signals the polling loop to exit and waits for it.
func (m *Monitor) Stop() {
	m.mu.Lock()
	m.stopping = true
	done := m.done
	running := m.running
	m.mu.Unlock()
	if running && done != nil {
		_ = done.Wait()
	}
	m.mu.Lock()
	m.stopping = false
	m.mu.Unlock()
}
