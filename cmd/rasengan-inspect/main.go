// Command rasengan-inspect dumps the offline pipeline of one instance —
// constraints, homogeneous basis, schedule, coverage, segmentation, and
// (optionally) the compiled transition circuits — without running the
// variational loop. It is the debugging companion to rasengan-solve.
//
// Usage:
//
//	rasengan-inspect -bench G3
//	rasengan-inspect -bench F2 -circuits -qasm
//	rasengan-inspect -checkpoint run.ckpt   # summarize a solve checkpoint
//	rasengan-inspect -events http://127.0.0.1:6060/debug/events   # dump the flight recorder
//	rasengan-inspect -events data/captures/job-00000001/events.json
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rasengan"
	"rasengan/internal/core"
	"rasengan/internal/obs"
	"rasengan/internal/parallel"
	"rasengan/internal/problems"
	"rasengan/internal/quantum"
	"rasengan/internal/store"
	"rasengan/internal/transpile"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rasengan-inspect: ")

	var (
		bench     = flag.String("bench", "F1", "benchmark label (F1..G4)")
		caseIdx   = flag.Int("case", 0, "case index")
		circuits  = flag.Bool("circuits", false, "draw every scheduled transition circuit")
		emitQASM  = flag.Bool("qasm", false, "print every scheduled transition circuit as OpenQASM")
		maxShow   = flag.Int("max", 5, "cap on vectors/circuits printed")
		saveSched = flag.String("save-schedule", "", "write the pruned schedule as JSON to this path")
		dumpProb  = flag.String("dump-problem", "", "write the instance as JSON to this path")
		traceFile = flag.String("trace", "", "write a Chrome trace-event JSON of the offline stages (open in chrome://tracing or Perfetto)")
		ckptFile  = flag.String("checkpoint", "", "summarize this solve checkpoint file and exit")
		eventsSrc = flag.String("events", "", "dump a flight-recorder event window and exit: a /debug/events URL or an events.json file (e.g. from an anomaly capture)")
	)
	wf := parallel.AddFlags(flag.CommandLine)
	flag.Parse()

	if _, err := wf.Apply(); err != nil {
		log.Fatal(err)
	}
	if *eventsSrc != "" {
		// Standalone mode: render a flight-recorder dump — either fetched
		// live from a serving binary's /debug/events or read from the
		// events.json of an anomaly capture.
		if err := dumpEvents(*eventsSrc); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *ckptFile != "" {
		// Standalone mode: describe a -checkpoint file written by
		// rasengan-solve/-bench without needing the originating instance.
		// LoadCheckpoint resolves live slot files (interrupted run) and
		// the published canonical file alike.
		data, err := store.LoadCheckpoint(*ckptFile)
		if err != nil {
			log.Fatal(err)
		}
		ck, err := core.ParseCheckpoint(data)
		if err != nil {
			log.Fatal(err)
		}
		total, done := ck.Starts()
		fmt.Printf("checkpoint %s (%d bytes, format v%d)\n", *ckptFile, len(data), ck.Version())
		fmt.Printf("  problem: %s (%d variables)\n", ck.Problem(), ck.Vars())
		fmt.Printf("  starts:  %d/%d finished\n", done, total)
		fmt.Println("  resume:  rasengan-solve -resume", *ckptFile)
		return
	}
	if *caseIdx < 0 {
		log.Fatalf("-case must be >= 0 (got %d)", *caseIdx)
	}

	// The pipeline stages below (basis search, coverage BFS) can take a
	// while on wide instances; Ctrl-C stops between stages rather than
	// leaving a half-printed dump ambiguous.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	checkpoint := func(stage string) {
		if ctx.Err() != nil {
			log.Fatalf("interrupted before %s", stage)
		}
	}

	b, err := problems.ByLabel(*bench)
	if err != nil {
		log.Fatal(err)
	}
	p := b.Generate(*caseIdx)

	fmt.Printf("problem %s: %d variables, %d constraints, objective %s\n",
		p.Name, p.N, p.NumConstraints(), p.Sense)
	fmt.Printf("seed solution: %s (f = %g)\n", p.Init, p.Objective(p.Init))
	topo := problems.ConstraintTopology(p)
	fmt.Printf("constraint topology: avg degree %.2f, max degree %d, max row span %d, %d component(s)\n\n",
		topo.AverageDegree, topo.MaxDegree, topo.MaxRowSpan, topo.Components)

	// With -trace the three offline stages are spanned by hand: inspect
	// never calls Solve, so it records the pipeline pieces it runs itself.
	rec := (*obs.Recorder)(nil)
	if *traceFile != "" {
		rec = obs.NewRecorder()
	}

	checkpoint("basis construction")
	sp := rec.Start(obs.StageBasis, 0, obs.NoParent)
	basis, err := core.BuildBasis(p, core.BasisOptions{})
	rec.End(sp)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("homogeneous basis: kernel dim m = %d, pool size %d, TU heuristic %v\n",
		basis.M, len(basis.Vectors), basis.TU)
	if basis.UsedTernarySearch {
		fmt.Println("  (rational basis left {-1,0,1}^n — ternary kernel search ran)")
	}
	if basis.SimplifySaved > 0 {
		fmt.Printf("  Algorithm 1 removed %d nonzero entries\n", basis.SimplifySaved)
	}
	for i, u := range basis.Vectors {
		if i >= *maxShow {
			fmt.Printf("  ... (%d more)\n", len(basis.Vectors)-*maxShow)
			break
		}
		fmt.Printf("  u%-2d nnz=%-2d %v\n", i+1, core.NonZero(u), u)
	}

	checkpoint("schedule construction")
	sp = rec.Start(obs.StageHamiltonian, 0, obs.NoParent)
	sched := core.BuildSchedule(p, basis, core.ScheduleOptions{})
	rec.End(sp)
	fmt.Printf("\nschedule: %d operators kept of %d scheduled (%d pruned, early stop %v)\n",
		len(sched.Ops), len(sched.AllOps), sched.PrunedCount, sched.EarlyStopped)
	fmt.Printf("reachable feasible states: %d\n", len(sched.Reachable))
	if rep, err := core.VerifyCoverage(p, core.BasisOptions{}); err == nil {
		if rep.Total >= 0 {
			fmt.Printf("coverage: %d / %d (complete: %v)\n", rep.Reached, rep.Total, rep.Complete)
		} else {
			fmt.Printf("coverage: %d reached (instance too wide for exhaustive total)\n", rep.Reached)
		}
	}

	checkpoint("segmentation")
	sp = rec.Start(obs.StageCircuit, 0, obs.NoParent)
	exec, err := core.NewExecutor(p, sched.Ops, core.ExecOptions{})
	rec.End(sp)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsegmentation: %d segments, deepest compiled depth %d, total CX %d\n",
		exec.NumSegments(), exec.MaxSegmentDepth(), exec.TotalCX)
	for i, d := range exec.SegmentDepths {
		fmt.Printf("  segment %d: depth %d\n", i+1, d)
	}

	states, distinct, pairs := exec.CompiledSpaceStats()
	fmt.Printf("\nengine: compiled (%d states, %d distinct operators, %d rotation pairs)\n",
		states, distinct, pairs)

	if rec != nil {
		if err := rec.WriteChromeTraceFile(*traceFile); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote trace to %s (%d spans)\n", *traceFile, rec.Len())
	}

	if *saveSched != "" {
		data, err := core.MarshalSchedule(p, sched)
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*saveSched, data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote schedule to %s (%d bytes)\n", *saveSched, len(data))
	}
	if *dumpProb != "" {
		data, err := problems.ToJSON(p)
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*dumpProb, data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote instance to %s (%d bytes)\n", *dumpProb, len(data))
	}

	if *circuits || *emitQASM {
		for i, op := range sched.Ops {
			if i >= *maxShow {
				fmt.Printf("\n... (%d more operators)\n", len(sched.Ops)-*maxShow)
				break
			}
			circ := op.OperatorCircuit(p.N, 0.785)
			dec := transpile.Decompose(circ)
			fmt.Printf("\nτ%d over u=%v  (compiled: %d gates, %d CX, depth %d)\n",
				i+1, op.U, len(dec.Gates), dec.CountKind(quantum.GateCX), dec.Depth())
			if *circuits {
				fmt.Print(rasengan.DrawCircuit(circ))
			}
			if *emitQASM {
				fmt.Print(rasengan.ExportQASM(circ))
			}
		}
	}
}

// dumpEvents renders a flight-recorder window from a /debug/events URL
// or an events.json file as a fixed-width table.
func dumpEvents(src string) error {
	var data []byte
	var err error
	if strings.HasPrefix(src, "http://") || strings.HasPrefix(src, "https://") {
		client := &http.Client{Timeout: 10 * time.Second}
		resp, rerr := client.Get(src)
		if rerr != nil {
			return rerr
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: HTTP %s", src, resp.Status)
		}
		data, err = io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	} else {
		data, err = os.ReadFile(src)
	}
	if err != nil {
		return err
	}
	events, dropped, err := obs.ParseEventDump(data)
	if err != nil {
		return fmt.Errorf("%s: %w", src, err)
	}
	fmt.Printf("flight recorder: %d events resident, %d evicted\n", len(events), dropped)
	for _, e := range events {
		ts := time.UnixMilli(e.TimeUnixMS).UTC().Format("15:04:05.000")
		id := e.JobID
		if id == "" {
			id = "-"
		}
		fmt.Printf("  %6d  %s  %-5s  %-24s %-14s %s\n", e.Seq, ts, e.Severity, e.Kind, id, e.Detail)
	}
	return nil
}
