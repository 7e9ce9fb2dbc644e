package scrub

import "raizn/internal/obs"

// RegisterMetrics publishes the scrubber's lifetime totals into the
// registry as pull-style gauges under the scrub_ prefix. The gauge
// funcs take s.mu at snapshot time, so snapshots must not be taken
// from code holding the scrubber lock.
func (s *Scrubber) RegisterMetrics(r *obs.Registry) {
	locked := func(f func() int64) func() int64 {
		return func() int64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return f()
		}
	}
	g := func(name string, f func() int64) {
		r.GaugeFunc(name, locked(f))
	}
	g("scrub_passes_total", func() int64 { return s.passes })
	g("scrub_verified_stripes_total", func() int64 { return s.totals.Stripes })
	g("scrub_skipped_stripes_total", func() int64 { return s.totals.Skipped })
	g("scrub_mismatches_total", func() int64 { return s.totals.Mismatches })
	g("scrub_repaired_data_total", func() int64 { return s.totals.RepairedData })
	g("scrub_repaired_parity_total", func() int64 { return s.totals.RepairedParity })
	g("scrub_read_errors_total", func() int64 { return s.totals.ReadErrors })
	g("scrub_unrepaired_total", func() int64 { return s.totals.Unrepaired })
	g("scrub_bytes_read_total", func() int64 { return s.scannedAll })
}
