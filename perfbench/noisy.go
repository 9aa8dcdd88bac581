package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"time"

	"rasengan/internal/core"
	"rasengan/internal/device"
	"rasengan/internal/metrics"
	"rasengan/internal/obs"
	"rasengan/internal/problems"
	"rasengan/internal/service"
)

// noisyShots is the per-segment shot budget of a noisy solve.
const noisyShots = 512

// noisyCyclesPerSecond is how many cycles of inputs a run gets per second
// of measured time. A cycle takes about 7 s today, so the inputs outlast
// a run unless solves become some 700 times faster; if they do run out,
// the run ends after the last whole cycle.
const noisyCyclesPerSecond = 100

// noisyReferenceDigest is the digest of one cycle's payloads in instance
// order. The solves are fixed and deterministic, so every run of a correct
// program reproduces it, whatever its seed; a change that alters noisy
// payloads on purpose must update it.
const noisyReferenceDigest = "59e938db68729600"

// noisyWorkload is noisy-solve: in-process core.Solve on the Quebec
// device model, called by one caller in sequence.
type noisyWorkload struct {
	instances []solveSpec                  // the solves of one cycle, in instance order
	specs     []solveSpec                  // the inputs, in whole cycles
	probs     map[string]*problems.Problem // by problem name
	dev       *device.Device
	// wantDigest is the digest a cycle's payloads must have; "" skips
	// the check.
	wantDigest string
	// first holds the first payload of each solve; every later solve of
	// it must reproduce it byte for byte.
	first map[string][]byte
}

func newNoisyWorkload(seed int64, seconds int) (*noisyWorkload, error) {
	instances := noisyInstances(3, noisyMaxIter)
	w, err := noisyWorkloadOf(instances, noisyInputs(seed, noisyCyclesPerSecond*seconds, instances))
	if err != nil {
		return nil, err
	}
	w.wantDigest = noisyReferenceDigest
	return w, nil
}

// noisyWorkloadOf is the noisy workload that solves specs, cycles over
// instances; a run measures whole cycles.
func noisyWorkloadOf(instances, specs []solveSpec) (*noisyWorkload, error) {
	w := &noisyWorkload{instances: instances, specs: specs, probs: map[string]*problems.Problem{},
		dev: device.Quebec(), first: map[string][]byte{}}
	for _, s := range append(append([]solveSpec(nil), noisySetupSpecs...), instances...) {
		if w.probs[s.problemName()] != nil {
			continue
		}
		p, err := s.build()
		if err != nil {
			return nil, err
		}
		w.probs[s.problemName()] = p
	}
	return w, nil
}

func (w *noisyWorkload) options(s solveSpec) core.Options {
	opts := core.Options{Seed: s.Seed, MaxIter: s.MaxIter}
	opts.Exec.Shots = noisyShots
	opts.Exec.Device = w.dev
	return opts
}

// solve runs s with opts and returns its wire payload.
func (w *noisyWorkload) solve(s solveSpec, opts core.Options) (*core.Result, []byte, error) {
	p := w.probs[s.problemName()]
	res, err := core.Solve(context.Background(), p, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("solve %s: %w", s.key(), err)
	}
	payload, err := service.MarshalResultPayload(p, res)
	return res, payload, err
}

// setup solves noisySetupSpecs, which settles the heap and the worker
// pool before the measured window, and returns why a payload is wrong, or
// "": each must reproduce the first solve of its instance.
func (w *noisyWorkload) setup() (string, error) {
	for _, s := range noisySetupSpecs {
		_, payload, err := w.solve(s, w.options(s))
		if err != nil {
			return "", err
		}
		if !w.reproduces(s, payload) {
			return "set-up solve differs from an earlier solve of " + s.key(), nil
		}
	}
	return "", nil
}

// reproduces keeps payload as a solve of s and reports whether it equals
// the first solve of s.
func (w *noisyWorkload) reproduces(s solveSpec, payload []byte) bool {
	first, ok := w.first[s.key()]
	if !ok {
		w.first[s.key()] = payload
		return true
	}
	return bytes.Equal(first, payload)
}

// digestOf is a short hex digest of payloads in order.
func digestOf(payloads [][]byte) string {
	h := sha256.New()
	for _, p := range payloads {
		fmt.Fprintf(h, "%d\n", len(p))
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// noisyOp is one measured noisy solve: what the check needs of it.
type noisyOp struct {
	latency     time.Duration
	inRate      float64 // Result.InConstraintsRate
	expectation float64
	payload     []byte
	err         error
}

// noisyPass is one measured pass of noisy-solve.
type noisyPass struct {
	ops    []noisyOp
	cycles []time.Duration // wall time of each cycle; ops[i] is in cycle i/len(instances)
	rssMB  float64         // peak RSS at the end of the pass, before any check
	solves []solveSample   // traced passes only
}

// run solves the inputs in sequence, in whole cycles: it starts a new
// cycle only before the deadline and while the inputs hold a whole one,
// so every instance is solved equally often. With tr set, every solve gets its own span recorder, as the
// service gives every job; the pass keeps a per-solve sample of stages,
// engine and allocation, and tr a "solve" span per solve.
func (w *noisyWorkload) run(d time.Duration, tr *tracer, events *obs.EventRing) *noisyPass {
	p := &noisyPass{}
	deadline := time.Now().Add(d)
	var track int32
	if tr != nil {
		track = tr.rec.Track("caller")
	}
	n := len(w.instances)
	for c := 0; (c+1)*n <= len(w.specs) && time.Now().Before(deadline); c++ {
		cycleStart := time.Now()
		for i := c * n; i < (c+1)*n; i++ {
			w.solveOne(p, i, tr, track, events)
		}
		p.cycles = append(p.cycles, time.Since(cycleStart))
	}
	p.rssMB = peakRSSMB()
	return p
}

// solveOne solves input i and appends it to the pass.
func (w *noisyWorkload) solveOne(p *noisyPass, i int, tr *tracer, track int32, events *obs.EventRing) {
	s := w.specs[i]
	opts := w.options(s)
	var before runtime.MemStats
	if tr != nil {
		opts.Telemetry.Spans = obs.NewRecorder()
		opts.Telemetry.Events = &obs.EventScope{Ring: events, JobID: fmt.Sprintf("noisy-%d", i), SpecHash: s.key()}
		runtime.ReadMemStats(&before)
	}
	begin := tr.now()
	t0 := time.Now()
	res, payload, err := w.solve(s, opts)
	lat := time.Since(t0)
	op := noisyOp{latency: lat, payload: payload, err: err}
	if err == nil {
		op.inRate, op.expectation = res.InConstraintsRate, res.Expectation
	}
	p.ops = append(p.ops, op)
	if tr != nil && err == nil {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		tr.rec.Record("solve", track, obs.NoParent, begin, tr.now())
		p.solves = append(p.solves, solveSample{
			dur:        lat,
			stages:     res.Latency.Stages,
			evals:      res.Evals,
			iterations: res.Iterations,
			fallback:   mapEngineUsed(opts.Telemetry.Spans.Spans()),
			allocMB:    float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		})
	}
}

// noisyChecked is what a checked noisy pass yields.
type noisyChecked struct {
	cycles []measured // the successful solves of each cycle
	// fastest is a cycle made of each instance's fastest successful
	// solve. A cycle lasts several seconds, long enough for the host's
	// noise to reach most of them, so the fastest solve of each instance
	// is steadier than the fastest whole cycle.
	fastest measured
	args    []float64 // ARG of each successful solve
	digest  string    // of one cycle's payloads, in instance order
}

// check accounts every solve: it must succeed, be feasible with a finite
// ARG and reproduce byte for byte the first solve of its instance in this
// process, set-up included. The digest of a cycle's payloads must equal
// wantDigest; that check counts as one op.
func (w *noisyWorkload) check(p *noisyPass, t *tally, opt optimum) (*noisyChecked, error) {
	c := &noisyChecked{cycles: make([]measured, len(p.cycles))}
	for i, d := range p.cycles {
		c.cycles[i].elapsed = d
	}
	fastest := map[string]float64{}
	for i, op := range p.ops {
		s := w.specs[i]
		o, why := succeeded, ""
		switch {
		case op.err != nil:
			o, why = failed, op.err.Error()
		case !feasible(op.inRate):
			o, why = failed, fmt.Sprintf("%s: in_constraints_rate %v", s.key(), op.inRate)
		case !w.reproduces(s, op.payload):
			o, why = failed, "solve differs from an earlier solve of "+s.key()
		}
		if o == succeeded {
			eopt, err := opt.of(s)
			if err != nil {
				return nil, err
			}
			arg := metrics.ARG(eopt, op.expectation)
			if math.IsNaN(arg) || math.IsInf(arg, 0) {
				o, why = failed, fmt.Sprintf("%s: ARG %v not finite", s.key(), arg)
			} else {
				l := ms(op.latency)
				c.args = append(c.args, arg)
				cycle := &c.cycles[i/len(w.instances)]
				cycle.lat = append(cycle.lat, l)
				if f, ok := fastest[s.key()]; !ok || l < f {
					fastest[s.key()] = l
				}
			}
		}
		t.record(o, why)
	}
	var payloads [][]byte
	for _, s := range w.instances {
		payloads = append(payloads, w.first[s.key()])
		if l, ok := fastest[s.key()]; ok {
			c.fastest.lat = append(c.fastest.lat, l)
			c.fastest.elapsed += time.Duration(l * float64(time.Millisecond))
		}
	}
	c.digest = digestOf(payloads)
	if w.wantDigest != "" {
		o, why := succeeded, ""
		if c.digest != w.wantDigest {
			o, why = failed, fmt.Sprintf("payload digest %s, want %s", c.digest, w.wantDigest)
		}
		t.record(o, why)
	}
	return c, nil
}
