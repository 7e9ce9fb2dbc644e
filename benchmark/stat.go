package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count), 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile by the exclusive method,
// the same numbers Python's statistics.quantiles(xs, n=4) gives (the
// driver's spread is (q3-q1)/median with exactly that rule). It needs at
// least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// relRange is (max-min)/|median|: the A/A range the bounds are taken from.
func relRange(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	m := math.Abs(median(xs))
	if m == 0 {
		return 0
	}
	return (hi - lo) / m
}

// tailPercent is the percentile reported as "p99": 99 when at least ten
// samples lie beyond it, otherwise the highest percentile that still has
// ten samples beyond it (0 when there are not even ten samples).
func tailPercent(n int) float64 {
	if n >= 1000 {
		return 99
	}
	if n <= 10 {
		return 0
	}
	return 100 * float64(n-10) / float64(n)
}

// percentile returns the p-th percentile (nearest rank) of sorted.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailUs is the reported tail latency of sorted nanosecond samples, in us.
func tailUs(sorted []int64) float64 {
	return float64(percentile(sorted, tailPercent(len(sorted)))) / 1e3
}

// Bound floors by metric family (ISSUE 12): simulated and counted metrics
// should repeat almost exactly, host time is noisy, set-up noisier still.
const (
	floorSim   = 0.01
	floorHost  = 0.10
	floorSetup = 0.15
	boundCap   = 0.25 // the contract's ceiling
)

func boundFloor(metric string) float64 {
	switch metric {
	case "setup_s":
		return floorSetup
	case "host_ns_per_op", "host_cpu_ns_per_op":
		return floorHost
	}
	return floorSim
}

// boundFor is the rule BENCHMARK.json's bounds come from:
// max(floor, 2 x observed A/A range), capped at the contract's ceiling.
func boundFor(metric string, aaRange float64) float64 {
	return math.Min(boundCap, math.Max(boundFloor(metric), 2*aaRange))
}

// worseBy is how much worse b is than a as a share of a, in the metric's
// own direction (negative when b is better).
func worseBy(a, b float64, higherIsBetter bool) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / math.Abs(a)
	if higherIsBetter {
		return -d
	}
	return d
}
