// Command rasengan-verify runs the differential- and metamorphic-testing
// oracle: seeded randomized problems plus a fixed adversarial corner
// suite, each cross-checked across the sparse simulator, the dense
// simulator, the compiled gate circuits, and brute-force references.
//
// Usage:
//
//	rasengan-verify                       # CI smoke: 25 cases, seed 1
//	rasengan-verify -cases 100 -seed 7    # deeper seeded sweep
//	rasengan-verify -report out.json      # machine-readable report
//	rasengan-verify -inject-fault         # oracle self-test: MUST fail
//
// The exit code is 0 only when every check passes (inverted under
// -inject-fault: the deliberately corrupted amplitude must be detected).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"rasengan/internal/parallel"
	"rasengan/internal/verify"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rasengan-verify: ")

	var (
		cases      = flag.Int("cases", 25, "randomized cases to generate (corners always run unless -skip-corners)")
		seed       = flag.Int64("seed", 1, "seed for case selection, times, and permutations; identical flags give identical runs")
		maxScale   = flag.Int("max-scale", 2, "largest benchmark scale drawn (1-4)")
		solveEvery = flag.Int("solve-every", 5, "full-solve determinism checks on every Nth eligible case (<0 disables)")
		iters      = flag.Int("iters", 25, "optimizer iterations for full-solve checks")
		altWorkers = flag.Int("alt-workers", 8, "worker count the determinism check compares against workers=1")
		report     = flag.String("report", "", "write the JSON report to this file ('-' for stdout)")
		failFast   = flag.Bool("fail-fast", false, "stop at the first case with a failing check")
		skip       = flag.Bool("skip-corners", false, "skip the fixed adversarial corner suite")
		inject     = flag.Bool("inject-fault", false, "deliberately corrupt one amplitude per case; the run then MUST detect it (exit 0 on detection, 1 on a blind oracle)")
	)
	wf := parallel.AddFlags(flag.CommandLine)
	flag.Parse()
	if _, err := wf.Apply(); err != nil {
		log.Fatal(err)
	}
	if *cases < 1 {
		log.Fatal("-cases must be >= 1")
	}
	if *maxScale < 1 || *maxScale > 4 {
		log.Fatal("-max-scale must be in 1..4")
	}

	rep := verify.Run(verify.Config{
		Cases:                *cases,
		Seed:                 *seed,
		MaxScale:             *maxScale,
		SolveEvery:           *solveEvery,
		SolveIters:           *iters,
		Workers:              *altWorkers,
		FailFast:             *failFast,
		SkipCorners:          *skip,
		InjectAmplitudeFault: *inject,
	})

	if *report != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatalf("marshal report: %v", err)
		}
		data = append(data, '\n')
		if *report == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*report, data, 0o644); err != nil {
			log.Fatalf("write report: %v", err)
		}
	}
	fmt.Println(rep.Summary())

	if *inject {
		// Self-test mode: a healthy oracle detects the corruption.
		if rep.OK() {
			log.Fatal("FAULT NOT DETECTED: the injected amplitude corruption passed every check — the oracle is blind")
		}
		fmt.Println("injected fault detected — the oracle can fail, as it must")
		return
	}
	if !rep.OK() {
		os.Exit(1)
	}
}
