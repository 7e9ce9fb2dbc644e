package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// SchemaV1 identifies the standardized bench result format. A report is
// a flat list of named cells, each holding metric-name -> value rows;
// cell names encode the experiment's parameter point ("sim/su=4/bs=16/
// jobs=1"). Metric maps marshal with sorted keys, so emitted files are
// byte-deterministic for identical results.
const SchemaV1 = "raizn-bench/v1"

// Report is one benchmark run's results in the standard schema.
type Report struct {
	Schema     string `json:"schema"`
	Experiment string `json:"experiment"`
	Quick      bool   `json:"quick"`
	Cells      []Cell `json:"cells"`
}

// Cell is one parameter point of an experiment.
type Cell struct {
	Name    string             `json:"name"`
	Metrics map[string]float64 `json:"metrics"`
}

// cell looks up a cell by name.
func (r *Report) cell(name string) *Cell {
	for i := range r.Cells {
		if r.Cells[i].Name == name {
			return &r.Cells[i]
		}
	}
	return nil
}

// WriteFile marshals the report (indented, sorted metric keys, trailing
// newline) to path.
func (r *Report) WriteFile(path string) error {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// LoadReport reads a bench result file in the standard schema.
func LoadReport(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != SchemaV1 {
		return nil, fmt.Errorf("%s: schema %q, want %s", path, r.Schema, SchemaV1)
	}
	return &r, nil
}

// metricDirection classifies a metric name: +1 higher-is-better, -1
// lower-is-better, 0 unknown (deltas are reported but never flagged).
func metricDirection(name string) int {
	switch {
	case strings.Contains(name, "mib_s"), strings.Contains(name, "iops"),
		strings.Contains(name, "gain"), strings.Contains(name, "speedup"),
		strings.Contains(name, "reduction"), strings.Contains(name, "free"),
		strings.Contains(name, "jain"):
		return 1
	case strings.HasSuffix(name, "_us"), strings.HasSuffix(name, "_ns_op"),
		strings.HasSuffix(name, "_allocs_op"), strings.Contains(name, "lat"),
		strings.Contains(name, "_wa"), strings.Contains(name, "drop"),
		strings.Contains(name, "shed"), strings.Contains(name, "overhead"),
		strings.Contains(name, "breach"):
		return -1
	}
	return 0
}

// Compare renders a per-cell, per-metric delta table of cur vs old and
// returns how many metrics regressed by more than thresholdPct in their
// worse direction. Cells or metrics present on only one side are noted
// but not counted as regressions.
func Compare(w io.Writer, old, cur *Report, thresholdPct float64) int {
	fmt.Fprintf(w, "comparing %s (old) vs %s (new), regression threshold %.1f%%\n",
		old.Experiment, cur.Experiment, thresholdPct)
	regressions := 0
	row := func(cell, metric, ov, nv, delta, note string) {
		fmt.Fprintf(w, "%-28s %-22s %12s %12s %10s %s\n", cell, metric, ov, nv, delta, note)
	}
	row("cell", "metric", "old", "new", "delta%", "")
	for _, oc := range old.Cells {
		nc := cur.cell(oc.Name)
		if nc == nil {
			fmt.Fprintf(w, "  cell %q missing from the new report\n", oc.Name)
			continue
		}
		names := make([]string, 0, len(oc.Metrics))
		for m := range oc.Metrics {
			names = append(names, m)
		}
		sort.Strings(names)
		for _, m := range names {
			ov := oc.Metrics[m]
			nv, ok := nc.Metrics[m]
			if !ok {
				fmt.Fprintf(w, "  metric %s/%s missing from the new report\n", oc.Name, m)
				continue
			}
			deltaPct := 0.0
			if ov != 0 {
				deltaPct = (nv - ov) / ov * 100
			} else if nv != 0 {
				deltaPct = 100
			}
			note := ""
			dir := metricDirection(m)
			if dir != 0 && deltaPct*float64(dir) < -thresholdPct {
				note = "REGRESSION"
				regressions++
			}
			row(oc.Name, m, f1(ov), f1(nv), fmt.Sprintf("%+.1f", deltaPct), note)
		}
	}
	for _, nc := range cur.Cells {
		if old.cell(nc.Name) == nil {
			fmt.Fprintf(w, "  cell %q only in the new report\n", nc.Name)
		}
	}
	if regressions == 0 {
		fmt.Fprintln(w, "no regressions past threshold")
	} else {
		fmt.Fprintf(w, "%d metric(s) regressed past threshold\n", regressions)
	}
	return regressions
}
