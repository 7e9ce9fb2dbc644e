package obs

import (
	"sync"
	"time"

	"raizn/internal/stats"
)

// WatchdogConfig tunes the slow-IO watchdog.
type WatchdogConfig struct {
	// Multiple of the running per-op p99 a request must exceed to be
	// flagged. Default 3.
	Multiple float64
	// MinSamples is the per-op warmup before flagging starts — a cold
	// p99 over two samples flags everything. Default 64.
	MinSamples uint64
	// MaxFlagged bounds the retained flagged-span list. Default 16.
	MaxFlagged int
	// Window is the virtual-time bucket for the per-window flag budget:
	// under a sustained breach (a device gone slow flags every request)
	// at most MaxPerWindow span trees are retained per Window of span
	// end time, the rest are counted as dropped. Default 10ms.
	Window time.Duration
	// MaxPerWindow bounds the spans retained per Window. Default 8.
	MaxPerWindow int
}

// Watchdog watches root-span completions, keeps a running latency
// histogram per op type, and retains the span trees of requests that
// finished slower than Multiple× the running p99 — the "where did that
// outlier go" question Figs. 9–10 of the paper answer by hand.
type Watchdog struct {
	cfg       WatchdogConfig
	mu        sync.Mutex
	hists     [numOps]*stats.Histogram
	flagged   []*Span
	dropped   int
	curWin    int64 // window index of the last flagged span (-1 initially)
	inWindow  int   // spans retained in curWin
	dropGauge *Gauge
}

func newWatchdog(cfg WatchdogConfig) *Watchdog {
	if cfg.Multiple <= 0 {
		cfg.Multiple = 3
	}
	if cfg.MinSamples == 0 {
		cfg.MinSamples = 64
	}
	if cfg.MaxFlagged <= 0 {
		cfg.MaxFlagged = 16
	}
	if cfg.Window <= 0 {
		cfg.Window = 10 * time.Millisecond
	}
	if cfg.MaxPerWindow <= 0 {
		cfg.MaxPerWindow = 8
	}
	w := &Watchdog{cfg: cfg, curWin: -1}
	for i := range w.hists {
		w.hists[i] = stats.NewHistogram()
	}
	return w
}

// BindDropGauge mirrors the watchdog's dropped-span counter into g so
// the drop rate is visible from the metrics registry (typically a
// labeled raizn_obs_dropped_spans gauge).
func (w *Watchdog) BindDropGauge(g *Gauge) {
	w.mu.Lock()
	w.dropGauge = g
	g.Set(int64(w.dropped))
	w.mu.Unlock()
}

// observe feeds one finished root span. The span is judged against the
// p99 of the observations BEFORE it — a slow span must not raise the
// bar it is measured against.
func (w *Watchdog) observe(s *Span) {
	lat := s.Duration()
	w.mu.Lock()
	h := w.hists[s.Op]
	slow := h.Count() >= w.cfg.MinSamples &&
		float64(lat) > w.cfg.Multiple*float64(h.Percentile(99))
	if slow {
		// Budget flags per window of virtual end time: a sustained
		// breach (every request slow for seconds) must not grow the
		// retained list without bound, nor let one hot window evict
		// evidence of the next.
		if win := int64((s.start + lat) / w.cfg.Window); win != w.curWin {
			w.curWin = win
			w.inWindow = 0
		}
		if w.inWindow >= w.cfg.MaxPerWindow || len(w.flagged) >= w.cfg.MaxFlagged {
			w.dropped++
			if w.dropGauge != nil {
				w.dropGauge.Set(int64(w.dropped))
			}
		} else {
			w.inWindow++
			w.flagged = append(w.flagged, s)
		}
	}
	w.mu.Unlock()
	h.Record(lat)
}

// Flagged returns the retained slow spans plus how many more were
// flagged but dropped once the list filled.
func (w *Watchdog) Flagged() (spans []*Span, dropped int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]*Span(nil), w.flagged...), w.dropped
}

// Threshold reports the current flagging threshold for op, or false
// while still warming up.
func (w *Watchdog) Threshold(op Op) (time.Duration, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	h := w.hists[op]
	if h.Count() < w.cfg.MinSamples {
		return 0, false
	}
	return time.Duration(w.cfg.Multiple * float64(h.Percentile(99))), true
}
