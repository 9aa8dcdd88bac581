// Command rasengan-solve runs the full Rasengan pipeline on one benchmark
// instance and prints the solution, quality, and circuit metrics.
//
// Usage:
//
//	rasengan-solve -bench F2 -case 0 -iters 150
//	rasengan-solve -bench G3 -device kyiv -shots 1024
//	rasengan-solve -family FLP -demands 4 -facilities 3
//	rasengan-solve -bench G4 -checkpoint g4.ckpt        # Ctrl-C safe
//	rasengan-solve -bench G4 -resume g4.ckpt            # continue, bit-identical
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/signal"
	"sort"
	"syscall"

	"rasengan"
	"rasengan/internal/device"
	"rasengan/internal/parallel"
	"rasengan/internal/problems"
	"rasengan/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rasengan-solve: ")

	var (
		bench      = flag.String("bench", "", "benchmark label (F1..G4); overrides -family")
		probFile   = flag.String("problem", "", "solve an instance from a JSON file (see rasengan-inspect -dump-problem)")
		caseIdx    = flag.Int("case", 0, "case index within the benchmark")
		family     = flag.String("family", "FLP", "problem family for custom sizes (FLP only)")
		demands    = flag.Int("demands", 2, "FLP demands (with -family FLP)")
		facilities = flag.Int("facilities", 2, "FLP facilities (with -family FLP)")
		seed       = flag.Int64("seed", 1, "generator and solver seed")
		iters      = flag.Int("iters", 150, "optimizer iteration budget")
		shots      = flag.Int("shots", 0, "shots per segment (0 = exact noise-free)")
		devName    = flag.String("device", "", "device model: kyiv, brisbane, quebec (empty = ideal)")
		verbose    = flag.Bool("v", false, "print the full output distribution and the convergence trace")
		draw       = flag.Bool("draw", false, "draw the first transition-operator circuit")
		emitQASM   = flag.Bool("qasm", false, "print the first transition-operator circuit as OpenQASM 2.0")
		traceFile  = flag.String("trace", "", "write a Chrome trace-event JSON of the solve's stage spans (open in chrome://tracing or Perfetto)")
		ckptFile   = flag.String("checkpoint", "", "write a resumable mid-solve checkpoint to this path (crash-safe slot files during the run, published to the path itself on exit)")
		ckptEvery  = flag.Int("checkpoint-every", 1, "checkpoint once per this many optimizer iterations (with -checkpoint)")
		resumeFile = flag.String("resume", "", "resume an interrupted solve from this checkpoint file")
	)
	wf := parallel.AddFlags(flag.CommandLine)
	flag.Parse()

	// Validate everything up front: a bad flag is a one-line error and a
	// non-zero exit, never a panic or a silent default.
	if _, err := wf.Apply(); err != nil {
		log.Fatal(err)
	}
	if *caseIdx < 0 {
		log.Fatalf("-case must be >= 0 (got %d)", *caseIdx)
	}
	if *iters < 1 {
		log.Fatalf("-iters must be >= 1 (got %d)", *iters)
	}
	if *shots < 0 {
		log.Fatalf("-shots must be >= 0 (got %d)", *shots)
	}
	if *ckptEvery < 1 {
		log.Fatalf("-checkpoint-every must be >= 1 (got %d)", *ckptEvery)
	}
	if *bench == "" && *probFile == "" {
		if !problems.KnownFamily(*family) {
			log.Fatalf("unknown problem family %q (known: FLP, KPP, JSP, SCP, GCP)", *family)
		}
		if *demands < 1 || *facilities < 1 {
			log.Fatalf("-demands and -facilities must be >= 1 (got %d, %d)", *demands, *facilities)
		}
	}

	var p *rasengan.Problem
	switch {
	case *probFile != "":
		data, err := os.ReadFile(*probFile)
		if err != nil {
			log.Fatal(err)
		}
		p, err = rasengan.ProblemFromJSON(data)
		if err != nil {
			log.Fatal(err)
		}
	case *bench != "":
		b, err := problems.ByLabel(*bench)
		if err != nil {
			log.Fatal(err)
		}
		p = b.Generate(*caseIdx)
	case *family == "FLP":
		p = rasengan.NewFacilityLocation(rasengan.FLPConfig{Demands: *demands, Facilities: *facilities}, *seed)
	default:
		log.Fatalf("custom sizes are supported for -family FLP only; use -bench for %s (e.g. -bench %c1)", *family, (*family)[0])
	}

	opts := rasengan.SolveOptions{MaxIter: *iters, Seed: *seed}
	opts.Exec.Shots = *shots
	if *resumeFile != "" {
		// LoadCheckpoint resolves interrupted runs (live slot files) and
		// cleanly closed ones (plain canonical file) alike.
		data, err := store.LoadCheckpoint(*resumeFile)
		if err != nil {
			log.Fatal(err)
		}
		ck, err := rasengan.ParseCheckpoint(data)
		if err != nil {
			log.Fatal(err)
		}
		opts.Resume = ck
		total, done := ck.Starts()
		fmt.Printf("resuming %s from %s (%d/%d starts already finished)\n", ck.Problem(), *resumeFile, done, total)
	}
	var ckptW *store.CheckpointWriter
	if *ckptFile != "" {
		w, err := store.OpenCheckpointWriter(*ckptFile)
		if err != nil {
			log.Fatal(err)
		}
		ckptW = w
		opts.Checkpoint = &rasengan.CheckpointOptions{
			Every: *ckptEvery,
			Write: w.Write,
		}
	}
	if *devName != "" {
		dev, err := device.ByName(*devName)
		if err != nil {
			log.Fatal(err)
		}
		opts.Exec.Device = dev
		if opts.Exec.Shots == 0 {
			opts.Exec.Shots = 1024
		}
	}

	// The exact optimum doubles as the convergence trace's ARG reference,
	// so compute it before the solve when the instance is small enough.
	var ref rasengan.Reference
	refKnown := false
	if p.N <= 24 {
		if r, err := rasengan.ExactReference(p); err == nil {
			ref, refKnown = r, true
		}
	}
	var rec *rasengan.TraceRecorder
	if *traceFile != "" {
		rec = rasengan.NewTraceRecorder()
		opts.Telemetry.Spans = rec
	}
	if *verbose {
		opts.Telemetry.Convergence = true
		if refKnown {
			opts.Telemetry.EOpt = ref.Opt
			opts.Telemetry.EOptKnown = true
		}
	}

	// Ctrl-C / SIGTERM stops the solve cooperatively at the next
	// optimizer-iteration or segment boundary instead of killing the
	// process mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := rasengan.SolveContext(ctx, p, opts)
	if ckptW != nil {
		// Publish the newest checkpoint to *ckptFile itself and drop the
		// slot files — on the interrupted path too, so -resume and
		// rasengan-inspect -checkpoint read the canonical name. Main exits
		// via os.Exit/log.Fatal below, which would skip a defer.
		if cerr := ckptW.Close(); cerr != nil {
			log.Printf("checkpoint close: %v", cerr)
		}
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			if *ckptFile != "" {
				log.Fatalf("interrupted; continue with -resume %s", *ckptFile)
			}
			log.Fatal("interrupted before a result was available")
		}
		log.Fatal(err)
	}

	fmt.Printf("problem:        %s (%d variables, %d constraints)\n", p.Name, p.N, p.NumConstraints())
	fmt.Printf("best solution:  %s\n", res.BestSolution)
	fmt.Printf("best value:     %g (%s)\n", res.BestValue, p.Sense)
	fmt.Printf("expectation:    %g\n", res.Expectation)
	if refKnown {
		fmt.Printf("optimum:        %g   ARG: %.4f\n", ref.Opt, rasengan.ARG(ref.Opt, res.Expectation))
	}
	fmt.Printf("in-constraints: %.1f%%\n", 100*res.InConstraintsRate)
	fmt.Printf("segments:       %d (deepest compiled depth %d)\n", res.NumSegments, res.SegmentDepth)
	fmt.Printf("parameters:     %d transition times\n", res.NumParams)
	fmt.Printf("latency model:  quantum %.1f ms, classical %.1f ms, compile %.1f ms\n",
		res.Latency.QuantumMS, res.Latency.ClassicalMS, res.Latency.CompileMS)
	if len(res.Latency.Stages) > 0 {
		names := make([]string, 0, len(res.Latency.Stages))
		for name := range res.Latency.Stages {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Printf("measured stages:")
		for _, name := range names {
			fmt.Printf(" %s %.1fms", name, res.Latency.Stages[name])
		}
		fmt.Println()
	}

	if rec != nil {
		if err := rec.WriteChromeTraceFile(*traceFile); err != nil {
			log.Fatalf("write trace: %v", err)
		}
		fmt.Printf("trace:          %s (%d spans; open in chrome://tracing or https://ui.perfetto.dev)\n",
			*traceFile, rec.Len())
	}

	if *verbose && len(res.Convergence) > 0 {
		fmt.Println("\nconvergence (winning start):")
		fmt.Println("  iter  best_energy     param_norm  elapsed_ms      arg")
		for _, it := range res.Convergence {
			argCol := "       -"
			if !math.IsNaN(it.ARG) {
				argCol = fmt.Sprintf("%8.4f", it.ARG)
			}
			fmt.Printf("  %4d  %12.6g  %12.5g  %10.2f  %s\n",
				it.Iter, it.BestEnergy, it.ParamNorm, it.ElapsedMS, argCol)
		}
	}

	if (*draw || *emitQASM) && len(res.Schedule.Ops) > 0 {
		circ, err := rasengan.TransitionCircuit(res.Schedule.Ops[0].U, p.N, res.Times[0])
		if err == nil {
			if *draw {
				fmt.Println("\nfirst transition operator τ(u₁, t₁):")
				fmt.Print(rasengan.DrawCircuit(circ))
			}
			if *emitQASM {
				fmt.Println("\nOpenQASM 2.0 of τ(u₁, t₁):")
				fmt.Print(rasengan.ExportQASM(circ))
			}
		}
	}

	if *verbose {
		fmt.Println("\ndistribution:")
		type kv struct {
			s string
			p float64
			v float64
		}
		var rows []kv
		for x, pr := range res.Distribution {
			rows = append(rows, kv{x.String(), pr, p.Objective(x)})
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].p > rows[j].p })
		for _, r := range rows {
			fmt.Printf("  %s  p=%.4f  f=%g\n", r.s, r.p, r.v)
		}
	}
	os.Exit(0)
}
