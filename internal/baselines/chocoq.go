package baselines

import (
	"fmt"
	"math/rand"
	"time"

	"rasengan/internal/bitvec"
	"rasengan/internal/core"
	"rasengan/internal/optimize"
	"rasengan/internal/problems"
	"rasengan/internal/quantum"
	"rasengan/internal/transpile"
)

// ChocoQ runs the commute-Hamiltonian QAOA baseline [43]: the mixer is a
// first-order Trotter product of the transition Hamiltonians derived from
// the constraints (which commute with the constraint operators), the
// phase separator encodes the raw objective, and the state is seeded at a
// feasible solution — so in the noise-free setting every output satisfies
// the constraints, but the final state remains a superposition over the
// feasible space (Table 1's accuracy gap to Rasengan).
func ChocoQ(p *problems.Problem, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	compileStart := time.Now()
	basis, err := core.BuildBasis(p, core.BasisOptions{})
	if err != nil {
		return nil, fmt.Errorf("choco-q: %w", err)
	}
	// The commuting-driver construction uses the kernel basis vectors
	// directly (m of them), not the pruned schedule pool.
	mixers := basis.Vectors
	if len(mixers) > basis.M {
		mixers = mixers[:basis.M]
	}
	trs := make([]core.Transition, len(mixers))
	for i, u := range mixers {
		trs[i] = core.Transition{U: u}
	}

	res := &Result{Algorithm: "choco-q", NumParams: 2 * opts.Layers}

	// Representative circuit for depth/latency metrics.
	repr := chocoCircuit(p, trs, opts.Layers)
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
	shotNS := transpile.ShotLatencyNS(transpile.Decompose(repr), durations)

	// Per-layer compiled stats for noise injection.
	type layerNoise struct{ oneQ, twoQ, depth int }
	var ln layerNoise
	layerCirc := chocoCircuit(p, trs, 1)
	layerDec := transpile.Decompose(layerCirc)
	ln.twoQ = layerDec.CountTwoQubit()
	ln.oneQ = len(layerDec.Gates) - ln.twoQ
	ln.depth = layerDec.Depth()

	noisy := opts.Device != nil && !opts.Device.Noise.IsZero()
	rng := rand.New(rand.NewSource(opts.Seed + 29))
	shotsPerEval := opts.Shots
	if shotsPerEval <= 0 {
		shotsPerEval = 1024
	}

	evolve := func(params []float64, withNoise bool) map[bitvec.Vec]float64 {
		run := func() *quantum.Sparse {
			st := quantum.NewSparse(p.Init)
			for l := 0; l < opts.Layers; l++ {
				gamma, beta := params[l], params[opts.Layers+l]
				st.ApplyDiagonalPhaseFunc(p.ScoreMin, gamma)
				for _, tr := range trs {
					st.ApplyTransition(tr.U, beta)
				}
				if withNoise {
					injectSparseLayerNoise(st, p.N, opts, ln.oneQ, ln.twoQ, ln.depth, rng)
				}
			}
			return st
		}
		if !withNoise && opts.Shots <= 0 {
			return run().Probabilities()
		}
		counts := map[bitvec.Vec]int{}
		traj := opts.Trajectories
		if !withNoise {
			traj = 1
		}
		if traj > shotsPerEval {
			traj = shotsPerEval
		}
		base, extra := shotsPerEval/traj, shotsPerEval%traj
		for t := 0; t < traj; t++ {
			n := base
			if t < extra {
				n++
			}
			if n == 0 {
				continue
			}
			sampled := run().Sample(rng, n)
			for _, x := range sortedStates(sampled) {
				c := sampled[x]
				if withNoise && opts.Device.Noise.ReadoutError > 0 {
					for k := 0; k < c; k++ {
						counts[opts.Device.Noise.ApplyReadout(x, rng)]++
					}
				} else {
					counts[x] += c
				}
			}
		}
		return distFromCounts(counts)
	}

	evals := 0
	quantumMS, classicalMS := 0.0, 0.0
	objective := func(params []float64) float64 {
		evals++
		dist := evolve(params, noisy)
		quantumMS += float64(shotsPerEval) * shotNS / 1e6
		classicalMS += classicalEvalMS(len(dist), len(p.Obj.Quad), classicalBase)
		e := 0.0
		for _, x := range sortedStates(dist) {
			e += dist[x] * p.ScoreMin(x)
		}
		return e
	}

	x0 := initLinspace(opts.Layers, 0.4, 0.4)
	best := optimize.COBYLA(objective, x0, optimize.Options{MaxIter: opts.MaxIter, Step: 0.3, Seed: opts.Seed})

	finalDist := evolve(best.X, noisy)
	summarizeDistribution(res, p, finalDist, 0)
	res.Evals = evals
	res.bestParams = best.X
	res.Latency.QuantumMS = quantumMS
	res.Latency.ClassicalMS = classicalMS
	res.Latency.CompileMS = compileMS
	return res, nil
}

// chocoCircuit emits the explicit gate sequence of `layers` Choco-Q
// layers for metric accounting: the Ising phase separator of the raw
// objective plus every transition-operator mixer term.
func chocoCircuit(p *problems.Problem, trs []core.Transition, layers int) *quantum.Circuit {
	c := quantum.NewCircuit(p.N)
	obj := p.Obj.Clone()
	if p.Sense == problems.Maximize {
		obj.Scale(-1)
	}
	_, h, J := obj.IsingCoefficients()
	const gamma, beta = 0.3, 0.3
	for l := 0; l < layers; l++ {
		for i, hi := range h {
			if hi != 0 {
				c.RZ(i, 2*gamma*hi)
			}
		}
		for _, t := range J {
			c.CX(t.I, t.J)
			c.RZ(t.J, 2*gamma*t.Coef)
			c.CX(t.I, t.J)
		}
		for _, tr := range trs {
			c.Extend(tr.OperatorCircuit(p.N, beta))
		}
	}
	return c
}

// injectSparseLayerNoise applies one trajectory step of the device noise
// over a whole Choco-Q layer: depolarizing events with probability scaled
// by the layer's gate count, plus damping across a random subset of
// qubits.
func injectSparseLayerNoise(st *quantum.Sparse, n int, opts Options, oneQ, twoQ, depth int, rng *rand.Rand) {
	eff := opts.Device.OperatorNoise(oneQ, twoQ, depth)
	if eff.DepolProb > 0 && rng.Float64() < eff.DepolProb {
		q := rng.Intn(n)
		switch rng.Intn(3) {
		case 0:
			st.ApplyX(q)
		case 1:
			st.ApplyY(q)
		default:
			st.ApplyZ(q)
		}
	}
	for q := 0; q < n; q++ {
		quantum.ApplyAmplitudeDampingSparse(st, q, eff.AmpDampGamma/float64(n), rng)
		quantum.ApplyPhaseDampingSparse(st, q, eff.PhaseGamma/float64(n), rng)
	}
}
