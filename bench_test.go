// Package repro's root benchmarks wrap the experiment harness: one
// testing.B target per table/figure of the paper. Each iteration runs
// the full (quick-scale) experiment in virtual time; run with
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

func runExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := bench.Run(name, io.Discard, true); err != nil {
			b.Fatalf("%s: %v", name, err)
		}
	}
}

// BenchmarkTable1Metadata regenerates Table 1 (metadata locations/sizes).
func BenchmarkTable1Metadata(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkRawDevices regenerates the §6.1 raw device numbers.
func BenchmarkRawDevices(b *testing.B) { runExperiment(b, "raw") }

// BenchmarkFig7MdraidStripeSize regenerates Figure 7 (mdraid stripe-unit
// sweep).
func BenchmarkFig7MdraidStripeSize(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8RaiznStripeSize regenerates Figure 8 (RAIZN stripe-unit
// sweep).
func BenchmarkFig8RaiznStripeSize(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig9HeadToHead regenerates Figure 9 (RAIZN vs mdraid
// throughput and latency).
func BenchmarkFig9HeadToHead(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFig10GCTimeseries regenerates Figure 10 (overwrite time
// series; FTL GC cliff vs flat RAIZN).
func BenchmarkFig10GCTimeseries(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFig11Degraded regenerates Figure 11 (degraded reads).
func BenchmarkFig11Degraded(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkFig12Rebuild regenerates Figure 12 (time-to-repair vs valid
// data).
func BenchmarkFig12Rebuild(b *testing.B) { runExperiment(b, "fig12") }

// BenchmarkFig13KVS regenerates Figure 13 (db_bench workloads).
func BenchmarkFig13KVS(b *testing.B) { runExperiment(b, "fig13") }

// BenchmarkFig14OLTP regenerates Figure 14 (sysbench OLTP).
func BenchmarkFig14OLTP(b *testing.B) { runExperiment(b, "fig14") }

// BenchmarkAblateResetWAL regenerates the §5.2 reset-WAL cost ablation.
func BenchmarkAblateResetWAL(b *testing.B) { runExperiment(b, "ablate-wal") }

// BenchmarkAblateJournal regenerates the mdraid write-journal cost
// ablation.
func BenchmarkAblateJournal(b *testing.B) { runExperiment(b, "ablate-journal") }
