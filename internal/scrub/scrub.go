// Package scrub implements the background scrub and device-health
// subsystem: a rate-limited scrubber that walks a volume stripe by
// stripe verifying (and optionally repairing) data/parity consistency,
// and a health monitor that turns accumulated read-error and corruption
// counts into a healthy → suspect → failed state machine with an
// auto-rebuild hook.
//
// The scrubber walks a RAIZN volume's logical zones stripe by stripe
// through the volume's checksum-aware ScrubStripe. Rate limiting is a
// token bucket over scrubbed bytes on the virtual clock, so scrub
// interference with foreground IO is bounded and measurable.
package scrub

import (
	"errors"
	"sync"
	"time"

	"raizn/internal/obs"
	"raizn/internal/raizn"
	"raizn/internal/vclock"
)

// Config configures a Scrubber.
type Config struct {
	Clock  *vclock.Clock
	Volume *raizn.Volume
	// Repair makes scrub fix what it can attribute; off = verify only.
	Repair bool
	// RateLimit bounds scrub reads in bytes per (virtual) second;
	// 0 means unthrottled.
	RateLimit int64
	// PassInterval is the idle time between background passes.
	PassInterval time.Duration
}

// PassStats aggregates one scrub pass.
type PassStats struct {
	Stripes        int64 // stripes verified
	Skipped        int64 // stripes not verifiable this pass
	Mismatches     int64
	RepairedData   int64
	RepairedParity int64
	ReadErrors     int64
	Unrepaired     int64
	BytesRead      int64
	Elapsed        time.Duration
}

func (p *PassStats) add(r raizn.StripeScrubResult) {
	if r.Skipped {
		p.Skipped++
	} else {
		p.Stripes++
	}
	if r.Mismatch {
		p.Mismatches++
	}
	if r.RepairedData {
		p.RepairedData++
	}
	if r.RepairedParity {
		p.RepairedParity++
	}
	p.ReadErrors += int64(r.ReadErrors)
	if r.Unrepaired {
		p.Unrepaired++
	}
	p.BytesRead += r.BytesRead
}

// ErrStopped is returned by RunPass when Stop interrupts it.
var ErrStopped = errors.New("scrub: stopped")

// Scrubber drives scrub passes over a volume.
type Scrubber struct {
	cfg Config
	clk *vclock.Clock

	mu       sync.Mutex
	stopping bool
	running  bool
	done     *vclock.Future // completes when the background loop exits

	// Token bucket (guarded by mu): tokens accumulate at RateLimit
	// bytes/sec up to one second's burst.
	tokens     int64
	lastRefill time.Duration

	passes     int64
	totals     PassStats
	scannedAll int64 // bytes read across all passes, including the current one
}

// New builds a Scrubber. Config.Clock and Config.Volume are required.
func New(cfg Config) *Scrubber {
	s := &Scrubber{cfg: cfg, clk: cfg.Clock}
	s.lastRefill = s.clk.Now()
	return s
}

// acquire blocks until n bytes of scrub budget are available.
func (s *Scrubber) acquire(n int64) {
	rate := s.cfg.RateLimit
	if rate <= 0 {
		return
	}
	for {
		s.mu.Lock()
		now := s.clk.Now()
		elapsed := now - s.lastRefill
		s.lastRefill = now
		s.tokens += int64(float64(rate) * elapsed.Seconds())
		if s.tokens > rate { // burst cap: one second of budget
			s.tokens = rate
		}
		if s.tokens >= n || s.stopping {
			s.tokens -= n
			s.mu.Unlock()
			return
		}
		short := n - s.tokens
		s.mu.Unlock()
		wait := time.Duration(float64(short) / float64(rate) * float64(time.Second))
		if wait < time.Microsecond {
			wait = time.Microsecond
		}
		s.clk.Sleep(wait)
	}
}

// RunPass scrubs every stripe of every logical zone once, blocking until
// the pass completes, and records the pass as one EvScrub event in the
// volume's journal (stripes, mismatches, repairs, bytes read). Safe to
// call from any simulated goroutine.
func (s *Scrubber) RunPass() (PassStats, error) {
	v := s.cfg.Volume
	start := s.clk.Now()
	v.ResetScrubProgress()
	var stats PassStats
	for z := 0; z < v.NumZones(); z++ {
		for st := int64(0); st < v.StripesPerZone(); st++ {
			s.mu.Lock()
			stopping := s.stopping
			s.mu.Unlock()
			if stopping {
				stats.Elapsed = s.clk.Now() - start
				return stats, ErrStopped
			}
			res, err := v.ScrubStripe(z, st, s.cfg.Repair)
			if err != nil {
				stats.Elapsed = s.clk.Now() - start
				return stats, err
			}
			stats.add(res)
			s.mu.Lock()
			s.scannedAll += res.BytesRead
			s.mu.Unlock()
			// Pay for the bytes just read; the next stripe waits until
			// the bucket refills, bounding the average scrub rate.
			s.acquire(res.BytesRead)
		}
	}
	stats.Elapsed = s.clk.Now() - start
	s.mu.Lock()
	s.passes++
	s.totals.Stripes += stats.Stripes
	s.totals.Skipped += stats.Skipped
	s.totals.Mismatches += stats.Mismatches
	s.totals.RepairedData += stats.RepairedData
	s.totals.RepairedParity += stats.RepairedParity
	s.totals.ReadErrors += stats.ReadErrors
	s.totals.Unrepaired += stats.Unrepaired
	s.totals.BytesRead += stats.BytesRead
	s.mu.Unlock()
	v.Journal().Record(obs.EvScrub, obs.SrcLogical, -1,
		stats.Stripes, stats.Mismatches,
		stats.RepairedData+stats.RepairedParity, stats.BytesRead)
	return stats, nil
}

// Start launches the background scrub loop: repeated passes separated
// by Config.PassInterval. No-op if already running.
func (s *Scrubber) Start() {
	s.mu.Lock()
	if s.running {
		s.mu.Unlock()
		return
	}
	s.running = true
	s.stopping = false
	s.done = s.clk.NewFuture()
	done := s.done
	s.mu.Unlock()

	s.clk.Go(func() {
		for {
			if _, err := s.RunPass(); err != nil {
				break // stopped or volume error: end the loop
			}
			s.mu.Lock()
			stopping := s.stopping
			s.mu.Unlock()
			if stopping {
				break
			}
			if s.cfg.PassInterval > 0 {
				s.clk.Sleep(s.cfg.PassInterval)
			}
			s.mu.Lock()
			stopping = s.stopping
			s.mu.Unlock()
			if stopping {
				break
			}
		}
		s.mu.Lock()
		s.running = false
		s.mu.Unlock()
		done.Complete(nil)
	})
}

// Stop signals the background loop to exit and waits for it.
func (s *Scrubber) Stop() {
	s.mu.Lock()
	s.stopping = true
	done := s.done
	running := s.running
	s.mu.Unlock()
	if running && done != nil {
		_ = done.Wait()
	}
	s.mu.Lock()
	s.stopping = false
	s.mu.Unlock()
}

// BytesScanned returns bytes read by scrub so far, including the pass
// in progress (the scrub_ gauges' other totals count completed passes).
func (s *Scrubber) BytesScanned() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.scannedAll
}
