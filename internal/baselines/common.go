// Package baselines implements the variational baselines the paper
// compares Rasengan against: penalty-term QAOA (P-QAOA) with its
// FrozenQubits and Red-QAOA refinements, commute-Hamiltonian QAOA
// (Choco-Q), and the hardware-efficient ansatz (HEA).
package baselines

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"rasengan/internal/bitvec"
	"rasengan/internal/device"
	"rasengan/internal/metrics"
	"rasengan/internal/problems"
	"rasengan/internal/quantum"
	"rasengan/internal/transpile"
)

// Options configures a baseline run. The defaults reproduce the paper's
// setup: five layers, COBYLA-style updates, up to 300 iterations.
type Options struct {
	Layers  int // repetition depth p (default 5)
	MaxIter int // optimizer iteration cap (default 300)
	// Shots > 0 samples measurements; 0 uses exact expectations.
	Shots int
	// Device enables noisy trajectory execution; nil is the ideal
	// simulator.
	Device *device.Device
	// Trajectories bounds noise realizations (default 8).
	Trajectories int
	// PenaltyLambda weights the constraint penalty for P-QAOA/HEA; 0
	// derives it from the objective scale.
	PenaltyLambda float64
	Seed          int64
}

func (o Options) withDefaults() Options {
	if o.Layers <= 0 {
		o.Layers = 5
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 300
	}
	if o.Trajectories <= 0 {
		o.Trajectories = 8
	}
	return o
}

// Result is the shared outcome shape across baselines.
type Result struct {
	Algorithm string

	// Expectation is E_real as the paper's ARG consumes it: the expected
	// penalized objective for penalty methods (infeasible mass is charged
	// its penalty), and the expected raw objective for feasible-by-
	// construction methods.
	Expectation float64
	// RawExpectation is E[f(x)] over the output distribution, penalty
	// excluded, for diagnostics.
	RawExpectation float64

	BestSolution bitvec.Vec
	BestValue    float64
	BestFeasible bool

	Distribution      map[bitvec.Vec]float64
	InConstraintsRate float64

	Depth     int // compiled circuit depth on the target topology
	CXCount   int
	NumParams int
	Evals     int
	Latency   metrics.Latency

	// bestParams carries the optimizer's winning parameter vector for
	// warm-start flows (Red-QAOA stage 2).
	bestParams []float64
}

// autoLambda derives a penalty weight that dominates the objective range:
// the sum of absolute objective coefficients plus one.
func autoLambda(p *problems.Problem) float64 {
	s := math.Abs(p.Obj.Constant)
	for _, c := range p.Obj.Linear {
		s += math.Abs(c)
	}
	for _, t := range p.Obj.Quad {
		s += math.Abs(t.Coef)
	}
	return s + 1
}

// energyTable evaluates a quadratic objective on every basis state of an
// n-qubit register (n ≤ quantum.MaxDenseQubits).
func energyTable(q *problems.QuadObjective, n int) ([]float64, error) {
	if n > quantum.MaxDenseQubits {
		return nil, fmt.Errorf("baselines: %d qubits exceeds the dense simulator cap of %d", n, quantum.MaxDenseQubits)
	}
	out := make([]float64, 1<<uint(n))
	for x := range out {
		out[x] = q.Eval(bitvec.FromUint64(uint64(x), n))
	}
	return out, nil
}

// penalizedScore returns the minimization-form score of one basis state
// under penalty weight lambda.
func penalizedScore(p *problems.Problem, lambda float64, x bitvec.Vec) float64 {
	v := p.ScoreMin(x)
	got := p.C.MulVecBits(x.Ints())
	for r, g := range got {
		d := float64(g - p.B[r])
		v += lambda * d * d
	}
	return v
}

// summarizeDistribution fills the distribution-derived fields of a Result.
func summarizeDistribution(res *Result, p *problems.Problem, dist map[bitvec.Vec]float64, lambda float64) {
	res.Distribution = dist
	res.RawExpectation = 0
	res.Expectation = 0
	res.InConstraintsRate = 0
	bestSet := false
	for _, x := range sortedStates(dist) {
		pr := dist[x]
		f := p.Objective(x)
		res.RawExpectation += pr * f
		feas := p.Feasible(x)
		if feas {
			res.InConstraintsRate += pr
		}
		if lambda > 0 {
			score := penalizedScore(p, lambda, x)
			if p.Sense == problems.Maximize {
				score = -score
			}
			res.Expectation += pr * score
		} else {
			res.Expectation += pr * f
		}
		// Best: prefer feasible states; among feasible, best objective.
		better := false
		switch {
		case !bestSet:
			better = true
		case feas && !res.BestFeasible:
			better = true
		case feas == res.BestFeasible:
			if p.Sense == problems.Minimize {
				better = f < res.BestValue
			} else {
				better = f > res.BestValue
			}
		}
		if better {
			res.BestSolution = x
			res.BestValue = f
			res.BestFeasible = feas
			bestSet = true
		}
	}
}

// sortedStates returns the states of dist in ascending bitvec.Compare
// order: reductions over a distribution run in this order, never in map
// order, so their floats (and rng draws) repeat run to run.
func sortedStates[V any](dist map[bitvec.Vec]V) []bitvec.Vec {
	out := make([]bitvec.Vec, 0, len(dist))
	for x := range dist {
		out = append(out, x)
	}
	slices.SortFunc(out, bitvec.Vec.Compare)
	return out
}

// distFromDense converts a dense state to a distribution map, dropping
// negligible entries.
func distFromDense(d *quantum.Dense) map[bitvec.Vec]float64 {
	out := map[bitvec.Vec]float64{}
	n := d.NumQubits()
	for x := uint64(0); x < uint64(1)<<uint(n); x++ {
		if p := d.Probability(x); p > 1e-12 {
			out[bitvec.FromUint64(x, n)] = p
		}
	}
	return out
}

// distFromCounts normalizes shot counts into a distribution.
func distFromCounts(counts map[bitvec.Vec]int) map[bitvec.Vec]float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	out := make(map[bitvec.Vec]float64, len(counts))
	if total == 0 {
		return out
	}
	for x, c := range counts {
		out[x] = float64(c) / float64(total)
	}
	return out
}

// compileMetrics fills Depth/CXCount from a representative circuit, using
// the device topology when present and all-to-all otherwise (the
// noise-free algorithmic evaluation measures pre-routing depth).
func compileMetrics(res *Result, c *quantum.Circuit, dev *device.Device) error {
	if dev != nil {
		comp, err := dev.Compile(c)
		if err != nil {
			return err
		}
		res.Depth = comp.Depth
		res.CXCount = comp.CXCount
		return nil
	}
	dec := transpile.Decompose(c)
	res.Depth = dec.Depth()
	res.CXCount = dec.CountKind(quantum.GateCX)
	return nil
}

// sampleOrExactDense produces the output distribution of a dense-simulated
// circuit under the options: exact probabilities, ideal sampling, or noisy
// trajectory sampling.
func sampleOrExactDense(c *quantum.Circuit, init *quantum.Dense, opts Options, rng *rand.Rand) map[bitvec.Vec]float64 {
	noisy := opts.Device != nil && !opts.Device.Noise.IsZero()
	if !noisy && opts.Shots <= 0 {
		d := init.Clone()
		d.Run(c)
		return distFromDense(d)
	}
	shots := opts.Shots
	if shots <= 0 {
		shots = 1024
	}
	var nm *quantum.NoiseModel
	if noisy {
		nm = &opts.Device.Noise
	} else {
		nm = &quantum.NoiseModel{}
	}
	counts := quantum.SampleDenseNoisy(c, init, nm, shots, opts.Trajectories, rng)
	return distFromCounts(counts)
}
