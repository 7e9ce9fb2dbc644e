package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// manifest is the part of BENCHMARK.json the A/A tool and the tests read.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(path string) (*manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// lastLineResult parses the result a run printed as its last line.
func lastLineResult(stdout []byte) (result, error) {
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var res result
	err := json.Unmarshal([]byte(lines[len(lines)-1]), &res)
	return res, err
}

// childRun runs one untraced workload in a process of its own, as the
// driver does, and waits for it.
func childRun(exe, workload string, seed int64, seconds float64) (result, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	return lastLineResult(stdout.Bytes())
}

// repeatsExactly lists the metrics the model computes (simulated time and
// byte counts): with one seed they should not move at all between runs.
var repeatsExactly = map[string]bool{
	"sim_mib_s": true, "sim_p50_us": true, "sim_p99_us": true, "flash_waf": true, "dev_waf": true,
}

// runAA runs n full sets back to back, runs 2k and 2k+1 sharing seed
// base+k. The even and the odd runs are then two interleaved halves over
// the same seeds: their medians differ only by noise, and each pair shows
// whether the simulated metrics repeat exactly. It prints a markdown report
// and fails when two half-medians differ by more than the metric's bound
// in BENCHMARK.json, when a set-up is shorter than 0.5 s or when an op failed.
func runAA(out io.Writer, n int, base int64, seconds float64) error {
	if n < 2 {
		return fmt.Errorf("-aa needs at least 2 runs")
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	bounds := map[string]float64{}
	if m, err := readManifest("BENCHMARK.json"); err == nil {
		for _, d := range m.EndToEnd {
			bounds[d.Name] = d.Bound
		}
	} else {
		fmt.Fprintln(os.Stderr, "benchmark: no BENCHMARK.json here, checking against the bound floors:", err)
	}
	for _, d := range endToEndDefs {
		if _, ok := bounds[d.name]; !ok {
			bounds[d.name] = boundFloor(d.name)
		}
	}

	// values[workload][metric][run]
	values := map[string]map[string][]float64{}
	var failedOps int64
	for i := 0; i < n; i++ {
		for _, w := range workloads {
			seed := base + int64(i/2)
			fmt.Fprintf(os.Stderr, "aa: run %d/%d %s seed %d\n", i+1, n, w.name, seed)
			res, err := childRun(exe, w.name, seed, seconds)
			if err != nil {
				return err
			}
			failedOps += res.Failed
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for _, d := range endToEndDefs {
				values[w.name][d.name] = append(values[w.name][d.name], res.Metrics[d.name].Value)
			}
		}
	}

	fmt.Fprintf(out, "# A/A: %d runs per workload, -seconds %g, seeds %d..%d (runs 2k and 2k+1 share a seed)\n\n", n, seconds, base, base+int64((n-1)/2))
	fmt.Fprintln(out, "`spread` is (q3-q1)/median as the driver computes it; `range` is (max-min)/median;")
	fmt.Fprintln(out, "`halves` is how far the odd runs' median is from the even runs' (+ = worse);")
	fmt.Fprintln(out, "`exact` says whether every same-seed pair of runs gave the identical value.")
	derived := map[string]float64{}
	var problems, notes []string
	for _, w := range workloads {
		fmt.Fprintf(out, "\n## %s\n\n", w.name)
		fmt.Fprintln(out, "| metric | median | q1 | q3 | spread | range | halves | bound | exact |")
		fmt.Fprintln(out, "|---|---|---|---|---|---|---|---|---|")
		for _, d := range endToEndDefs {
			xs := values[w.name][d.name]
			med := median(xs)
			q1, q3 := quartiles(xs)
			rng := relRange(xs)
			var even, odd []float64
			exact := true
			for i, x := range xs {
				if i%2 == 0 {
					even = append(even, x)
				} else {
					odd = append(odd, x)
					exact = exact && x == xs[i-1]
				}
			}
			halves := worseBy(median(even), median(odd), d.better == "higher")
			exactCol := "-"
			if repeatsExactly[d.name] {
				exactCol = map[bool]string{true: "yes", false: "no"}[exact]
			}
			fmt.Fprintf(out, "| %s | %.6g | %.6g | %.6g | %.2f%% | %.2f%% | %+.2f%% | %.1f%% | %s |\n",
				d.name, med, q1, q3, 100*(q3-q1)/math.Abs(med), 100*rng, 100*halves, 100*bounds[d.name], exactCol)
			derived[d.name] = math.Max(derived[d.name], boundFor(d.name, rng))
			if math.Abs(halves) > bounds[d.name] {
				problems = append(problems, fmt.Sprintf("%s/%s: half-medians differ by %.2f%%, bound %.0f%%", w.name, d.name, 100*halves, 100*bounds[d.name]))
			}
			if rng > 0.10 {
				notes = append(notes, fmt.Sprintf("%s/%s: range %.1f%% of the median is above 10%%", w.name, d.name, 100*rng))
			}
			if d.name == "setup_s" && med < 0.5 {
				problems = append(problems, fmt.Sprintf("%s/setup_s: %.3f s is below 0.5 s", w.name, med))
			}
		}
	}
	fmt.Fprintf(out, "\n## Bounds\n\nmax(floor, 2 x range) over the workloads, capped at %.0f%%; BENCHMARK.json carries these.\n\n", 100*boundCap)
	fmt.Fprintln(out, "| metric | floor | derived bound | in BENCHMARK.json |")
	fmt.Fprintln(out, "|---|---|---|---|")
	for _, d := range endToEndDefs {
		fmt.Fprintf(out, "| %s | %.0f%% | %.1f%% | %.1f%% |\n", d.name, 100*boundFloor(d.name), 100*derived[d.name], 100*bounds[d.name])
	}
	fmt.Fprintf(out, "\nFailed ops over all runs: %d\n", failedOps)
	if failedOps > 0 {
		problems = append(problems, fmt.Sprintf("%d ops failed", failedOps))
	}
	if len(notes) > 0 {
		fmt.Fprintf(out, "\n## Ranges above 10 %%\n\n- %s\n", strings.Join(notes, "\n- "))
	}
	if len(problems) > 0 {
		fmt.Fprintf(out, "\n## Problems\n\n- %s\n", strings.Join(problems, "\n- "))
		return fmt.Errorf("A/A check failed:\n  %s", strings.Join(problems, "\n  "))
	}
	fmt.Fprintln(out, "\nA/A check passed: every pair of half-medians is within its bound.")
	return nil
}
