// Command raizn-faults drives the deterministic crash-point explorer
// (internal/chaos) over the registered chaos scenarios: it crashes each
// scenario's workload at its recorded crossings and checks the §5
// recovery guarantees on every remount.
//
//	raizn-faults                                   explore every scenario
//	raizn-faults -chaos <scenario>                 enumerate crash points
//	raizn-faults -chaos <scenario> -explore        crash at each, check recovery
//	raizn-faults -chaos <scenario> -forensics N    crash at crossing N, recover the
//	                                               persisted black box, print report
//	raizn-faults -replay <seed-string>             replay a printed repro
//
// Every run prints its seed; the same seed reproduces the same run bit
// for bit, and every violation prints a replay seed string. The command
// exits 1 if any exploration or replay finds a violation.
package main

import (
	"flag"
	"fmt"
	"os"

	"raizn/internal/chaos"
)

func main() {
	seed := flag.Int64("seed", 1, "base seed; the same seed reproduces the same run")
	chaosName := flag.String("chaos", "", "run the named chaos scenario (see -explore); lists crash points without it")
	explore := flag.Bool("explore", false, "with -chaos: crash at every sampled crossing and check recovery")
	maxPoints := flag.Int("max", 0, "explored crash points per scenario, sampled evenly (0 = all)")
	forensics := flag.Int("forensics", -1, "with -chaos: crash at census crossing N, recover the persisted flight black box from the clones, and print its incident report")
	replay := flag.String("replay", "", "replay a chaos repro seed string as printed for a violation")
	flag.Parse()

	if *replay != "" {
		os.Exit(runReplay(*replay))
	}
	if *chaosName != "" {
		os.Exit(runChaos(*chaosName, *explore, *maxPoints, *forensics, *seed))
	}
	code := 0
	for _, name := range chaos.Names() {
		code = max(code, runChaos(name, true, *maxPoints, -1, *seed))
	}
	os.Exit(code)
}

// runChaos drives the crash-point explorer over a registered scenario.
// Without -explore it only enumerates the crossings. Returns the exit
// code: 0 clean, 1 violations, 2 usage error.
func runChaos(name string, explore bool, maxPoints, forensics int, seed int64) int {
	s := chaos.Lookup(name)
	if s == nil {
		fmt.Fprintf(os.Stderr, "unknown chaos scenario %q (have %v)\n", name, chaos.Names())
		return 2
	}
	fmt.Printf("chaos scenario %s seed=%d ops=%d\n", s.Name, seed, len(s.Ops))

	if forensics >= 0 {
		rep, err := chaos.CrashForensics(s, forensics, chaos.VarFlushed, chaos.Options{Seed: seed})
		if err != nil {
			fmt.Fprintf(os.Stderr, "forensics: %v\n", err)
			return 1
		}
		fmt.Print(rep)
		return 0
	}

	if !explore {
		census, err := chaos.Census(s, seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "census: %v\n", err)
			return 1
		}
		for i, cp := range census {
			fmt.Printf("%4d  %s\n", i, cp)
		}
		fmt.Printf("%d crash points\n", len(census))
		return 0
	}

	opt := chaos.Options{Seed: seed, MaxPoints: maxPoints}
	res, err := chaos.Explore(s, opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "explore: %v\n", err)
		return 1
	}
	fmt.Printf("census=%d explored=%d recovered=%d violations=%d\n",
		len(res.Census), res.Explored, res.Recovered, len(res.Violations))
	for _, v := range res.Violations {
		fmt.Printf("violation: %v\n", v)
		fmt.Printf("  replay: %s\n", chaos.ReproFor(s, v, opt).SeedString())
		// File the incident: recover the black box the crashed run
		// persisted and print the forensics a deployment would see.
		if rep, err := chaos.ForensicsFor(s, v, opt); err == nil {
			fmt.Print(rep)
		} else {
			fmt.Printf("  forensics: %v\n", err)
		}
	}
	if len(res.Violations) > 0 {
		return 1
	}
	return 0
}

// runReplay re-runs a printed repro seed string deterministically and
// reports the violations it reproduces. Exit code 1 signals the violation
// is (still) present, 2 a malformed seed.
func runReplay(seedStr string) int {
	r, err := chaos.ParseSeed(seedStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	fmt.Printf("replaying %s\n", r.SeedString())
	vios, s, err := chaos.Replay(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	fmt.Printf("ops kept: %v\n", r.OpsOf(s))
	for _, v := range vios {
		fmt.Printf("violation: %v\n", v)
	}
	if len(vios) > 0 {
		fmt.Printf("%d violation(s) reproduced\n", len(vios))
		return 1
	}
	fmt.Println("no violations reproduced")
	return 0
}
