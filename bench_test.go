// Package repro's root benchmark wraps the experiment harness: one
// sub-benchmark per table/figure of the paper. Each iteration runs the
// full (quick-scale) experiment in virtual time; run with
//
//	go test -bench=. -benchmem
//
// and see cmd/raizn-bench for full-scale runs with the printed tables.
package main

import (
	"io"
	"testing"

	"raizn/internal/bench"
)

// BenchmarkExperiments runs every registered experiment, one
// sub-benchmark each (e.g. BenchmarkExperiments/table1).
func BenchmarkExperiments(b *testing.B) {
	for _, e := range bench.Experiments() {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := bench.Run(e.Name, io.Discard, true); err != nil {
					b.Fatalf("%s: %v", e.Name, err)
				}
			}
		})
	}
}
