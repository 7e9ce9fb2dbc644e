// Command raizn-bench regenerates the paper's tables and figures on the
// simulated device arrays. Run with -list to see the experiment registry,
// -exp <name> to run one, or -all for everything.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"raizn/internal/bench"
)

func main() {
	exp := flag.String("exp", "", "experiment to run (see -list)")
	all := flag.Bool("all", false, "run every experiment")
	list := flag.Bool("list", false, "list experiments")
	quick := flag.Bool("quick", false, "shrink workloads for a fast smoke run")
	metrics := flag.String("metrics", "", "write a JSON metrics-registry snapshot per experiment to this path (-all inserts the experiment name before the extension)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memprofile == "" {
			return
		}
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC() // surface live objects, not transient garbage
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
	}()

	switch {
	case *list:
		for _, e := range bench.Experiments() {
			fmt.Printf("%-8s %s\n", e.Name, e.Title)
		}
	case *all:
		for _, e := range bench.Experiments() {
			opts := bench.Options{
				Quick:       *quick,
				MetricsPath: metricsPathFor(*metrics, e.Name),
			}
			if err := bench.RunOpts(e.Name, os.Stdout, opts); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", e.Name, err)
				os.Exit(1)
			}
			fmt.Println()
		}
	case *exp != "":
		if err := bench.RunOpts(*exp, os.Stdout, bench.Options{Quick: *quick, MetricsPath: *metrics}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// metricsPathFor derives a per-experiment snapshot path from the -metrics
// base path: "m.json" + "fig9" -> "m.fig9.json".
func metricsPathFor(base, name string) string {
	if base == "" {
		return ""
	}
	ext := filepath.Ext(base)
	return strings.TrimSuffix(base, ext) + "." + name + ext
}
