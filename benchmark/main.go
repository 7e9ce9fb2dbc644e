// Command benchmark is the repository's one benchmark: six workloads, each
// driving the whole stack from outside (tenant -> volmgr -> raizn ->
// ppengine/parity -> zns on the virtual clock) with default configurations,
// reporting ten end-to-end metrics, or with -trace 1 the per-layer metrics.
// README.md beside this file defines every name.
//
//	go run ./benchmark -workload seqwrite -seed 1
//	go run ./benchmark -workload seqwrite -seed 1 -trace 1
//	go run ./benchmark -aa 10 > benchmark/AA.md
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// steadyMemory makes the Go runtime hand freed memory back with MADV_FREE
// instead of MADV_DONTNEED. Every epoch frees and reallocates its zone
// buffers (hundreds of MiB); with the default, the background scavenger
// unmaps whatever it reaches in between and the next epoch faults it in
// again, at about 14 us a page on the sandbox VM: epochs it hit ran 10-20 %
// slower than epochs it missed, which was most of the run-to-run noise. The
// runtime reads the setting once at start-up, so the process replaces itself.
func steadyMemory() error {
	const setting = "madvdontneed=0"
	env := os.Getenv("GODEBUG")
	if strings.Contains(env, "madvdontneed=") {
		return nil
	}
	if env != "" {
		env += ","
	}
	if err := os.Setenv("GODEBUG", env+setting); err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	return syscall.Exec(exe, os.Args, os.Environ())
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: seqwrite, smallsync, smallsync_zraid, randread, degraded, serve_open")
		seed    = flag.Int64("seed", 1, "seed of the op stream and payloads; the only source of randomness")
		seconds = flag.Float64("seconds", baseSeconds, "run length: epoch op counts scale with seconds/10, so results do not depend on host speed")
		scale   = flag.Float64("scale", 0, "epoch op count scale, overriding -seconds (1 = the frozen counts)")
		trace   = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics and writing trace-<workload>.json")
		aa      = flag.Int("aa", 0, "run N full sets in child processes and print the A/A table (markdown)")
	)
	flag.Parse()
	if err := steadyMemory(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	// Two threads whatever the host has, so numbers from a bigger machine
	// stay comparable with the 2-core sandbox the bounds were taken on.
	runtime.GOMAXPROCS(2)

	if *aa > 0 {
		if err := runAA(os.Stdout, *aa, *seed, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		flag.Usage()
		os.Exit(2)
	}
	opt := options{w: w, seed: *seed, scale: *scale, traced: *trace != 0, setups: setupRepeats, out: os.Stdout}
	if opt.scale <= 0 {
		opt.scale = *seconds / baseSeconds
	}
	if opt.traced {
		opt.setups = 1 // a traced run reports no setup_s
	}
	res, err := execute(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
