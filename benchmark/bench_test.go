package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of none = %v, want 0", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	var ten []float64
	for i := 10; i >= 1; i-- {
		ten = append(ten, float64(i))
	}
	if q1, q3 := quartiles(ten); !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q1, q3 := quartiles([]float64{16, 1, 4, 2, 8}); !near(q1, 1.5) || !near(q3, 12) {
		t.Errorf("quartiles(1,2,4,8,16) = %v, %v, want 1.5, 12", q1, q3)
	}
	if got := relRange([]float64{9, 10, 11}); !near(got, 0.2) {
		t.Errorf("relRange = %v, want 0.2", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1000, 99}, {50000, 99}, {999, 100 * 989.0 / 999}, {100, 90}, {20, 50}, {10, 0}, {0, 0}} {
		if got := tailPercent(c.n); !near(got, c.want) {
			t.Errorf("tailPercent(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	sorted := make([]int64, 100)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	// With 100 samples the tail is p90: exactly ten samples lie beyond it.
	if got := percentile(sorted, tailPercent(len(sorted))); got != 90 {
		t.Errorf("tail of 1..100 = %d, want 90", got)
	}
	if got := percentile(sorted, 50); got != 50 {
		t.Errorf("p50 of 1..100 = %d, want 50", got)
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("percentile of none = %d, want 0", got)
	}
}

func TestBoundArithmetic(t *testing.T) {
	for _, c := range []struct {
		metric string
		aa     float64
		want   float64
	}{
		{"sim_mib_s", 0, 0.01}, {"sim_p99_us", 0.02, 0.04}, {"flash_waf", 0.001, 0.01},
		{"host_allocs_per_op", 0.004, 0.01}, {"host_ns_per_op", 0.03, 0.10}, {"host_ns_per_op", 0.08, 0.16},
		{"host_cpu_ns_per_op", 0.2, 0.25}, {"setup_s", 0.05, 0.15}, {"setup_s", 0.11, 0.22},
	} {
		if got := boundFor(c.metric, c.aa); !near(got, c.want) {
			t.Errorf("boundFor(%s, %v) = %v, want %v", c.metric, c.aa, got, c.want)
		}
	}
	if got := worseBy(100, 110, false); !near(got, 0.1) {
		t.Errorf("lower-is-better 100 -> 110 worse by %v, want 0.1", got)
	}
	if got := worseBy(100, 110, true); !near(got, -0.1) {
		t.Errorf("higher-is-better 100 -> 110 worse by %v, want -0.1", got)
	}
}

func TestStreamIsPureFunctionOfWorkloadAndSeed(t *testing.T) {
	hash := func(name string, seed int64) uint64 {
		return generate(findWorkload(name), seed, 0.02, 1+timedEpochs).hash
	}
	for _, w := range workloads {
		a := generate(&w, 7, 0.02, 1+timedEpochs)
		b := generate(&w, 7, 0.02, 1+timedEpochs)
		if a.hash != b.hash || !reflect.DeepEqual(a.ops, b.ops) {
			t.Errorf("%s: two generations with one seed differ", w.name)
		}
		if hash(w.name, 7) == hash(w.name, 8) {
			t.Errorf("%s: seeds 7 and 8 give the same stream", w.name)
		}
	}
	if hash("smallsync", 3) != hash("smallsync_zraid", 3) {
		t.Error("smallsync and smallsync_zraid must replay identical ops")
	}
	if hash("randread", 3) != hash("degraded", 3) {
		t.Error("randread and degraded must replay identical ops")
	}
	if hash("seqwrite", 3) == hash("smallsync", 3) || hash("randread", 3) == hash("serve_open", 3) {
		t.Error("different streams share a hash")
	}
}

func TestStreamRespectsZones(t *testing.T) {
	for _, w := range workloads {
		s := generate(&w, 1, 0.05, 3)
		zones := int64(w.volumeZones(0.05, s))
		if zones > numArrays*(64-5) {
			t.Errorf("%s: needs %d zones, the arrays hold %d", w.name, zones, numArrays*(64-5))
		}
		for _, epoch := range s.ops {
			for _, ops := range epoch {
				for _, o := range ops {
					end := o.lba + int64(o.sectors)
					if o.sectors < 1 || o.lba < 0 || end > zones*zoneSectors || o.lba/zoneSectors != (end-1)/zoneSectors {
						t.Fatalf("%s: op %+v leaves its zone or the volume", w.name, o)
					}
				}
			}
		}
	}
}

func TestPayloadIsFunctionOfSeedAndLBA(t *testing.T) {
	a, b, c := newPayloadPool(5), newPayloadPool(5), newPayloadPool(6)
	if string(payload(a, 12345, 64)) != string(payload(b, 12345, 64)) {
		t.Error("same seed and LBA, different payload")
	}
	if string(payload(a, 12345, 1)) == string(payload(c, 12345, 1)) {
		t.Error("different seeds, same payload")
	}
	// A run of sectors equals its sectors one by one, across the pool's wrap.
	run := payload(a, poolSectors-3, 8)
	for i := int64(0); i < 8; i++ {
		if string(run[i*sectorBytes:(i+1)*sectorBytes]) != string(payload(a, poolSectors-3+i, 1)) {
			t.Fatalf("sector %d of a run differs from the sector alone", i)
		}
	}
	if string(payload(a, 16, 1)) == string(payload(a, 32, 1)) {
		t.Error("sectors a stripe unit apart share a payload")
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "raizn/internal/zns.(*Device).writeApplyLocked", "raizn/internal/raizn.(*Volume).flushRun"}, "zns"},
		{[]string{"hash/crc32.update", "raizn/internal/parity.XORCRCInto", "raizn/internal/raizn.(*Volume).computeWrite"}, "parity"},
		{[]string{"raizn/internal/obs/flight.(*Recorder).ObserveSpan"}, "obs"},
		{[]string{"runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"main.(*run).closedClient", "main.(*run).drive.func1"}, "runtime"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
	shares := cpuShares([]cpuSample{
		{[]string{"raizn/internal/zns.(*Device).Read"}, 3},
		{[]string{"runtime.futex"}, 1},
	})
	if !near(shares["zns"], 0.75) || !near(shares["runtime"], 0.25) {
		t.Errorf("cpuShares = %v", shares)
	}
}

func loadManifest(t *testing.T) *manifest {
	t.Helper()
	m, err := readManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesTables keeps BENCHMARK.json and the tables in this
// package in step, name for name.
func TestManifestMatchesTables(t *testing.T) {
	m := loadManifest(t)
	if m.RunSeconds != baseSeconds {
		t.Errorf("run_seconds = %d, the op counts are frozen at %d", m.RunSeconds, baseSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the table %q", i, m.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the table", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the table %+v", kind, i, g, d)
			}
			if bounded && (g.Bound < boundFloor(d.name) || g.Bound > boundCap) {
				t.Errorf("%s: bound %v outside [%v, %v]", d.name, g.Bound, boundFloor(d.name), boundCap)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEndDefs, true)
	check("per_layer", m.PerLayer, perLayerDefs, false)
	for _, layer := range cpuLayers {
		perLayerUnit(layer + ".cpu_share") // panics if the table lacks it
	}
}

func checkShape(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, %d defined", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s missing", d.name)
		} else if m.Unit != d.unit {
			t.Errorf("metric %s has unit %q, want %q", d.name, m.Unit, d.unit)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("result lacks key %q", k)
		}
	}
	if len(keys) != 4 {
		t.Errorf("result has %d keys, want exactly 4", len(keys))
	}
}

// TestSmokeAllWorkloads runs every workload end to end at a hundredth of
// its size: no op may fail, verification must pass, and the result must
// carry every end-to-end metric of BENCHMARK.json with its unit.
func TestSmokeAllWorkloads(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			t.Parallel() // host times mean nothing here; only their presence is checked
			res, err := execute(options{w: w, seed: 11, scale: 0.01, setups: 1, out: io.Discard})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
				t.Errorf("attempted %d failed %d correct %v", res.Attempted, res.Failed, res.Correct)
			}
			checkShape(t, res, endToEndDefs)
			for name, m := range res.Metrics {
				if !(m.Value > 0) {
					t.Errorf("%s = %v, end-to-end metrics are never 0", name, m.Value)
				}
			}
		})
	}
}

// TestTracedRunShape runs a closed-loop write workload and the open-loop
// one traced: every per-layer metric of BENCHMARK.json with its unit, and a
// trace file. perLayer itself fails a run that leaves a metric out, so the
// other workloads are covered whenever they run traced.
func TestTracedRunShape(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, name := range []string{"smallsync_zraid", "serve_open"} {
		res, err := execute(options{w: findWorkload(name), seed: 11, scale: 0.01, traced: true, setups: 1, out: io.Discard})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Failed != 0 || !res.Correct {
			t.Errorf("%s: failed %d correct %v", name, res.Failed, res.Correct)
		}
		checkShape(t, res, perLayerDefs)
		raw, err := os.ReadFile(filepath.Join(dir, "trace-"+name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var trace struct {
			Spans []span `json:"spans"`
		}
		if err := json.Unmarshal(raw, &trace); err != nil || len(trace.Spans) == 0 {
			t.Errorf("%s: trace file has %d spans, err %v", name, len(trace.Spans), err)
		}
	}
}

// TestNoFlagsSlatedForDeletion: the benchmark measures what the defaults
// give and must keep compiling when these options are removed, so its
// sources may not name them.
func TestNoFlagsSlatedForDeletion(t *testing.T) {
	doomed := []string{"Legacy" + "WritePath", "Use" + "Ring", "Parity" + "Mode", "No" + "Coalesce", "Discard" + "Data"}
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no sources found: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range doomed {
			if strings.Contains(string(src), name) {
				t.Errorf("%s mentions %s", f, name)
			}
		}
	}
}
