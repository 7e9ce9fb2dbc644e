// Package bench is the experiment harness: one runner per table and
// figure of the paper's evaluation (§6), each reproducing the workload,
// parameter sweep, and output series of the original on the simulated
// device arrays. Absolute numbers differ from the paper's testbed; the
// shapes — who wins, by what factor, where the crossovers sit — are the
// reproduction targets recorded in EXPERIMENTS.md.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"raizn/internal/blockdev"
	"raizn/internal/fio"
	"raizn/internal/mdraid"
	"raizn/internal/obs"
	"raizn/internal/obs/flight"
	"raizn/internal/raizn"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// Experiment is a registered, runnable reproduction of one paper result.
type Experiment struct {
	Name  string // registry key, e.g. "fig9"
	Title string
	Run   func(w io.Writer, quick bool) error
}

// experiments is the registry, sorted by name.
var experiments = []Experiment{
	{"ablate-journal", "Ablation: mdraid write-journal cost vs RAIZN's built-in write-hole closure (§2.2/§5.4)", runAblateJournal},
	{"ablate-wal", "Ablation: zone-reset write-ahead log cost (§5.2)", runAblateWAL},
	{"fig10", "Figure 10: full-device overwrite time series (on-device GC cliff)", runGCTimeseries},
	{"fig11", "Figure 11: degraded (single device failed) read performance", runDegraded},
	{"fig12", "Figure 12: time to repair a replaced device vs valid data", runRebuildTTR},
	{"fig13", "Figure 13: RocksDB-style db_bench workloads on F2FS-style filesystem", runDBBench},
	{"fig14", "Figure 14: sysbench OLTP on the KV store (MySQL/MyRocks analog)", runOLTP},
	{"fig7", "Figure 7: mdraid throughput vs block size across stripe unit sizes",
		func(w io.Writer, quick bool) error { return runStripeSweep(w, quick, "mdraid") }},
	{"fig8", "Figure 8: RAIZN throughput vs block size across stripe unit sizes",
		func(w io.Writer, quick bool) error { return runStripeSweep(w, quick, "raizn") }},
	{"fig9", "Figure 9: RAIZN vs mdraid throughput, median and p99.9 latency (64 KiB stripe units)", runHeadToHead},
	{"raw", "§6.1 raw device microbenchmarks (ZNS vs conventional SSD)", runRaw},
	{"scrub", "background scrub: foreground interference vs rate limit, and rot repair coverage vs mdraid", runScrub},
	{"serve", "Multi-tenant serving: fairness, weighted shares, open-loop tail latency", runServe},
	{"table1", "Table 1: location and size of RAIZN metadata (5 devices, 64 KiB SU, 1077 MiB zones)", runTable1},
	{"waf", "flash write amplification: logged vs zraid parity engines", runWAF},
}

// Experiments lists all registered experiments, sorted by name.
func Experiments() []Experiment { return slices.Clone(experiments) }

// Options configures one experiment run.
type Options struct {
	// Quick shrinks the workload for smoke tests.
	Quick bool
	// MetricsPath, when non-empty, receives a JSON snapshot of the run's
	// metrics registry when the experiment finishes.
	MetricsPath string
	// FlightPath, when non-empty, rides a flight recorder on the run's
	// raizn arrays and writes the sampled time series (a FlightReport)
	// when the experiment finishes. Experiments that build several
	// arrays report the last one built; mdraid-only sides of a compare
	// are not recorded.
	FlightPath string
}

// runRegistry collects the metrics of every volume, device and scrubber
// built during the current experiment run. RunOpts resets it per run and
// snapshots it to Options.MetricsPath. Experiments that sweep
// configurations build several volumes against the same registry: same-
// name counters accumulate across the sweep, and pull-style device
// gauges reflect the most recently built array (GaugeFunc replaces).
var runRegistry = obs.NewRegistry()

// runFlight is the flight recorder attached to the most recent raizn
// array of the current run, when Options.FlightPath asked for one.
var (
	runFlight    *flight.Recorder
	flightWanted bool
)

// Run executes the named experiment, writing its report to w. quick
// shrinks the workload for smoke tests.
func Run(name string, w io.Writer, quick bool) error {
	return RunOpts(name, w, Options{Quick: quick})
}

// RunOpts executes the named experiment with the given options.
func RunOpts(name string, w io.Writer, opts Options) error {
	for _, e := range experiments {
		if e.Name == name {
			fmt.Fprintf(w, "=== %s: %s ===\n", e.Name, e.Title)
			runRegistry = obs.NewRegistry()
			runFlight, flightWanted = nil, opts.FlightPath != ""
			if err := e.Run(w, opts.Quick); err != nil {
				return err
			}
			if opts.MetricsPath != "" {
				if err := writeMetricsSnapshot(opts.MetricsPath); err != nil {
					return err
				}
				fmt.Fprintf(w, "\nwrote metrics snapshot to %s\n", opts.MetricsPath)
			}
			if opts.FlightPath != "" {
				if err := writeFlightReport(opts.FlightPath, e.Name, opts.Quick); err != nil {
					return err
				}
				fmt.Fprintf(w, "\nwrote flight time series to %s\n", opts.FlightPath)
			}
			return nil
		}
	}
	return fmt.Errorf("bench: unknown experiment %q (use one of %v)", name, names())
}

func writeMetricsSnapshot(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := runRegistry.Snapshot().WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// FlightSchemaV1 versions -flight output.
const FlightSchemaV1 = "raizn-flight/v1"

// FlightReport is the serialized form of a -flight run: the experiment
// coordinates plus the recorder's black box (sampled metric time
// series, tail-sampled spans, journal tail).
type FlightReport struct {
	Schema     string           `json:"schema"`
	Experiment string           `json:"experiment"`
	Quick      bool             `json:"quick"`
	Box        *flight.BlackBox `json:"box"`
}

func writeFlightReport(path, exp string, quick bool) error {
	if runFlight == nil {
		return fmt.Errorf("bench: -flight: experiment %q built no raizn array to record", exp)
	}
	rep := FlightReport{
		Schema: FlightSchemaV1, Experiment: exp, Quick: quick,
		Box: runFlight.Snapshot(),
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func names() []string {
	var out []string
	for _, e := range experiments {
		out = append(out, e.Name)
	}
	return out
}

// scale holds the device geometry for a run.
type scale struct {
	znsZones   int
	znsZoneCap int64 // sectors
	numDevices int
}

func scaleFor(quick bool) scale {
	if quick {
		return scale{znsZones: 16, znsZoneCap: 256, numDevices: 5} // 16 MiB/device
	}
	return scale{znsZones: 64, znsZoneCap: 1024, numDevices: 5} // 256 MiB/device
}

// znsConfig returns the paper-calibrated ZNS device model at the given
// scale. discard drops payload storage for timing-only experiments.
func znsConfig(sc scale, discard bool) zns.Config {
	cfg := zns.DefaultConfig()
	cfg.NumZones = sc.znsZones
	cfg.ZoneCap = sc.znsZoneCap
	cfg.ZoneSize = sc.znsZoneCap + sc.znsZoneCap/4
	cfg.MaxOpenZones = 14
	cfg.MaxActiveZones = 28
	cfg.DiscardData = discard
	// Scale the reset cost with the zone size: the real device resets a
	// 1077 MiB zone in ~2 ms, so a scaled-down zone must not pay the
	// full-size reset or reset overhead dwarfs the (scaled) write time.
	cfg.ResetLatency = 100 * time.Microsecond
	return cfg
}

// blockConfig returns the conventional-SSD model with matching capacity.
func blockConfig(sc scale, discard bool) blockdev.Config {
	cfg := blockdev.DefaultConfig()
	cfg.NumSectors = int64(sc.znsZones) * sc.znsZoneCap
	cfg.DiscardData = discard
	return cfg
}

// newRaizn builds a fresh RAIZN array wired into the run's metrics
// registry. Under -flight it also rides a flight recorder on the array:
// an enabled tracer and journal feed it, and the recorder replaces
// runFlight (a sweep's last array is the one reported).
func newRaizn(clk *vclock.Clock, sc scale, discard bool, su int64) (*raizn.Volume, []*zns.Device, error) {
	devs := make([]*zns.Device, sc.numDevices)
	for i := range devs {
		devs[i] = zns.NewDevice(clk, znsConfig(sc, discard))
		devs[i].RegisterMetrics(runRegistry, fmt.Sprintf("zns_dev%d", i))
	}
	rcfg := raizn.DefaultConfig()
	rcfg.StripeUnitSectors = su
	rcfg.Metrics = runRegistry
	var tr *obs.Tracer
	var jrn *obs.Journal
	if flightWanted {
		jrn = obs.NewJournal(clk, obs.JournalConfig{Capacity: 1 << 14})
		jrn.Enable()
		tr = obs.NewTracer(clk, obs.Config{SinkCapacity: 256})
		tr.Enable()
		rcfg.Tracer = tr
		rcfg.Journal = jrn
	}
	v, err := raizn.Create(clk, devs, rcfg)
	if err == nil && flightWanted {
		rec := flight.New(flight.Config{
			Clock: clk, Registry: runRegistry, Journal: jrn, Label: "bench",
			Degraded: func() bool { return v.Degraded() >= 0 },
		})
		tr.SetObserver(rec)
		runFlight = rec
	}
	return v, devs, err
}

// newMdraid builds a fresh mdraid array wired into the run's metrics
// registry.
func newMdraid(clk *vclock.Clock, sc scale, discard bool, chunk int64) (*mdraid.Volume, []*blockdev.Device, error) {
	devs := make([]*blockdev.Device, sc.numDevices)
	for i := range devs {
		devs[i] = blockdev.NewDevice(clk, blockConfig(sc, discard))
		devs[i].RegisterMetrics(runRegistry, fmt.Sprintf("blockdev_dev%d", i))
	}
	mcfg := mdraid.DefaultConfig()
	mcfg.ChunkSectors = chunk
	v, err := mdraid.New(clk, devs, mcfg)
	return v, devs, err
}

// stack is one array under test: a RAIZN or an mdraid volume.
type stack struct {
	tgt    fio.Target
	rz     *raizn.Volume      // nil on mdraid
	md     *mdraid.Volume     // nil on RAIZN
	mdDevs []*blockdev.Device // mdraid's member devices
}

// newStack builds a fresh array of the named kind, "raizn" or "mdraid",
// with su-sector stripe units. Like the experiments, it panics on error.
func newStack(clk *vclock.Clock, sc scale, kind string, discard bool, su int64) stack {
	if kind == "raizn" {
		v, _, err := newRaizn(clk, sc, discard, su)
		if err != nil {
			panic(err)
		}
		return stack{tgt: fio.RaiznTarget{V: v}, rz: v}
	}
	v, devs, err := newMdraid(clk, sc, discard, su)
	if err != nil {
		panic(err)
	}
	return stack{tgt: fio.MdraidTarget{V: v}, md: v, mdDevs: devs}
}

// stripedJobs clones job n times, clone j at offset j*stride with seed
// j. A zero Size becomes stride.
func stripedJobs(n int, stride int64, job fio.Job) []fio.Job {
	js := make([]fio.Job, n)
	for j := range js {
		js[j] = job
		js[j].Offset, js[j].Seed = int64(j)*stride, int64(j)
		if job.Size == 0 {
			js[j].Size = stride
		}
	}
	return js
}

// table is a tiny fixed-width text table writer.
type table struct {
	w      io.Writer
	widths []int
}

func newTable(w io.Writer, headers ...string) *table {
	t := &table{w: w}
	for _, h := range headers {
		width := len(h) + 2
		if width < 12 {
			width = 12
		}
		t.widths = append(t.widths, width)
	}
	t.row(headers...)
	return t
}

// row pads each cell to its column's width and always leaves at least
// one space before the next cell.
func (t *table) row(cells ...string) {
	for i, c := range cells {
		w := 12
		if i < len(t.widths) {
			w = t.widths[i]
		}
		fmt.Fprintf(t.w, "%-*s ", w-1, c)
	}
	fmt.Fprintln(t.w)
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func kib(bs int64) string { return fmt.Sprintf("%dK", bs*4) } // sectors -> KiB (4 KiB sectors)
