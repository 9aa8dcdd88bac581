package baselines

import (
	"fmt"
	"math/rand"
	"time"

	"rasengan/internal/optimize"
	"rasengan/internal/problems"
	"rasengan/internal/quantum"
	"rasengan/internal/transpile"
)

// HEA runs the hardware-efficient ansatz baseline [24]: repeated layers
// of per-qubit RY/RZ rotations and a linear CX entangler chain, trained
// against the penalized objective. Its parameter count is 2·n·p — an
// order of magnitude above the QAOA family, matching Table 2.
func HEA(p *problems.Problem, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	lambda := opts.PenaltyLambda
	if lambda <= 0 {
		lambda = autoLambda(p)
	}
	qubo := p.PenaltyQUBO(lambda)
	n := p.N
	table, err := energyTable(&qubo, n)
	if err != nil {
		return nil, fmt.Errorf("hea: %w", err)
	}

	layers := opts.Layers
	numParams := 2 * n * layers
	buildCircuit := func(params []float64) *quantum.Circuit {
		c := quantum.NewCircuit(n)
		idx := 0
		for l := 0; l < layers; l++ {
			for q := 0; q < n; q++ {
				c.RY(q, params[idx])
				idx++
			}
			for q := 0; q < n; q++ {
				c.RZ(q, params[idx])
				idx++
			}
			for q := 0; q+1 < n; q++ {
				c.CX(q, q+1)
			}
		}
		return c
	}

	compileStart := time.Now()
	res := &Result{Algorithm: "hea", NumParams: numParams}
	repr := buildCircuit(make([]float64, numParams))
	if err := compileMetrics(res, repr, opts.Device); err != nil {
		return nil, err
	}
	compileMS := float64(time.Since(compileStart).Microseconds()) / 1000

	durations := transpile.DefaultDurations()
	classicalBase := 2.0
	if opts.Device != nil {
		durations = opts.Device.Durations
		classicalBase = opts.Device.ClassicalPerEvalMS
	}
	shotNS := transpile.ShotLatencyNS(repr, durations)

	rng := rand.New(rand.NewSource(opts.Seed + 41))
	shotsPerEval := opts.Shots
	if shotsPerEval <= 0 {
		shotsPerEval = 1024
	}
	evals := 0
	quantumMS, classicalMS := 0.0, 0.0
	objective := func(params []float64) float64 {
		evals++
		circ := buildCircuit(params)
		dist := sampleOrExactDense(circ, quantum.NewDense(n), opts, rng)
		quantumMS += float64(shotsPerEval) * shotNS / 1e6
		classicalMS += classicalEvalMS(len(dist), len(qubo.Quad), classicalBase)
		e := 0.0
		for _, x := range sortedStates(dist) {
			e += dist[x] * table[x.Uint64()]
		}
		return e
	}

	x0 := make([]float64, numParams)
	init := rand.New(rand.NewSource(opts.Seed + 43))
	for i := range x0 {
		x0[i] = (init.Float64() - 0.5) * 0.4
	}
	best := optimize.COBYLA(objective, x0, optimize.Options{MaxIter: opts.MaxIter, Step: 0.3, Seed: opts.Seed})

	finalDist := sampleOrExactDense(buildCircuit(best.X), quantum.NewDense(n), opts, rng)
	summarizeDistribution(res, p, finalDist, lambda)
	res.Evals = evals
	res.bestParams = best.X
	res.Latency.QuantumMS = quantumMS
	res.Latency.ClassicalMS = classicalMS
	res.Latency.CompileMS = compileMS
	return res, nil
}
