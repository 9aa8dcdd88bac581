package quantum

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"sync"

	"rasengan/internal/bitvec"
	"rasengan/internal/parallel"
)

// denseScratchPool recycles trajectory statevectors: SampleDenseNoisy runs
// trajectories × (segments × states) evolutions per solve, and a 2^n
// complex128 clone per trajectory was the dominant steady-state allocation
// of the noisy path. Buffers are reused across trajectories and across
// calls; a pooled register too small for the requested width is dropped on
// the floor for the GC.
var denseScratchPool sync.Pool

// denseFromPool returns a Dense that is a copy of init, backed by pooled
// storage when a large-enough buffer is available. Callers must release()
// it when done and not touch it afterwards.
func denseFromPool(init *Dense, ctx context.Context) *Dense {
	if v := denseScratchPool.Get(); v != nil {
		d := v.(*Dense)
		if cap(d.amps) >= len(init.amps) {
			d.amps = d.amps[:len(init.amps)]
			copy(d.amps, init.amps)
			d.n = init.n
			d.ctx = ctx
			return d
		}
	}
	c := init.Clone()
	c.ctx = ctx
	return c
}

// release returns a pooled (or poolable) register to the scratch pool.
func (d *Dense) release() {
	d.ctx = nil
	denseScratchPool.Put(d)
}

// NoiseModel describes the NISQ error channels of the evaluation section.
// Probabilities are per gate (for depolarizing) or per touched qubit per
// gate (for the damping channels); readout error is per measured bit.
type NoiseModel struct {
	OneQubitDepol    float64 // depolarizing probability per 1-qubit gate
	TwoQubitDepol    float64 // depolarizing probability per 2-qubit gate
	AmplitudeDamping float64 // γ per touched qubit per gate
	PhaseDamping     float64 // γ per touched qubit per gate
	ReadoutError     float64 // bit-flip probability per measured qubit
}

// IsZero reports whether the model injects no errors at all.
func (nm *NoiseModel) IsZero() bool {
	return nm == nil || (nm.OneQubitDepol == 0 && nm.TwoQubitDepol == 0 &&
		nm.AmplitudeDamping == 0 && nm.PhaseDamping == 0 && nm.ReadoutError == 0)
}

// depolProb returns the depolarizing probability applicable to gate g.
func (nm *NoiseModel) depolProb(g Gate) float64 {
	if g.IsTwoQubitOrMore() {
		return nm.TwoQubitDepol
	}
	return nm.OneQubitDepol
}

// SurvivalProb returns the probability that a circuit with the given gate
// mix executes without a single depolarizing event — the first-order
// fidelity proxy used by analytic latency/quality models.
func (nm *NoiseModel) SurvivalProb(numOneQ, numTwoQ int) float64 {
	if nm == nil {
		return 1
	}
	return math.Pow(1-nm.OneQubitDepol, float64(numOneQ)) *
		math.Pow(1-nm.TwoQubitDepol, float64(numTwoQ))
}

// ApplyReadout flips each bit of x independently with the readout error
// probability, modeling measurement misassignment.
func (nm *NoiseModel) ApplyReadout(x bitvec.Vec, rng *rand.Rand) bitvec.Vec {
	if nm == nil || nm.ReadoutError == 0 {
		return x
	}
	for i := 0; i < x.Len(); i++ {
		if rng.Float64() < nm.ReadoutError {
			x.Flip(i)
		}
	}
	return x
}

// --- Dense trajectory channels ---

// afterGateDense injects one trajectory's worth of noise after gate g.
func (nm *NoiseModel) afterGateDense(d *Dense, g Gate, rng *rand.Rand) {
	p := nm.depolProb(g)
	for _, q := range g.Qubits {
		if p > 0 && rng.Float64() < p {
			applyRandomPauliDense(d, q, rng)
		}
		if nm.AmplitudeDamping > 0 {
			amplitudeDampDense(d, q, nm.AmplitudeDamping, rng)
		}
		if nm.PhaseDamping > 0 {
			phaseDampDense(d, q, nm.PhaseDamping, rng)
		}
	}
}

func applyRandomPauliDense(d *Dense, q int, rng *rand.Rand) {
	switch rng.Intn(3) {
	case 0:
		d.ApplyGate(Gate{Kind: GateX, Qubits: []int{q}})
	case 1:
		// Y = iXZ: apply as a 1-qubit matrix directly.
		d.Apply1Q(q, [2][2]complex128{{0, complex(0, -1)}, {complex(0, 1), 0}})
	default:
		d.Apply1Q(q, [2][2]complex128{{1, 0}, {0, -1}})
	}
}

// prob1Dense returns P(qubit q = 1).
func prob1Dense(d *Dense, q int) float64 {
	bit := uint64(1) << uint(q)
	p := 0.0
	for i, a := range d.amps {
		if uint64(i)&bit != 0 {
			p += real(a)*real(a) + imag(a)*imag(a)
		}
	}
	return p
}

// amplitudeDampDense applies one quantum-trajectory step of the amplitude
// damping channel with Kraus operators K0 = diag(1, √(1−γ)),
// K1 = √γ·|0⟩⟨1|.
func amplitudeDampDense(d *Dense, q int, gamma float64, rng *rand.Rand) {
	p1 := prob1Dense(d, q)
	pJump := gamma * p1
	bit := uint64(1) << uint(q)
	if rng.Float64() < pJump {
		// Jump: |1⟩ decays to |0⟩.
		for i := range d.amps {
			idx := uint64(i)
			if idx&bit != 0 {
				d.amps[idx&^bit] = d.amps[idx]
				d.amps[idx] = 0
			}
		}
	} else {
		// No-jump evolution damps the |1⟩ component.
		f := complex(math.Sqrt(1-gamma), 0)
		for i := range d.amps {
			if uint64(i)&bit != 0 {
				d.amps[i] *= f
			}
		}
	}
	d.Normalize()
}

// phaseDampDense applies one trajectory step of the phase damping channel
// with K0 = diag(1, √(1−γ)), K1 = diag(0, √γ).
func phaseDampDense(d *Dense, q int, gamma float64, rng *rand.Rand) {
	p1 := prob1Dense(d, q)
	pJump := gamma * p1
	bit := uint64(1) << uint(q)
	if rng.Float64() < pJump {
		// Jump projects onto qubit=1, destroying coherence with |0⟩.
		for i := range d.amps {
			if uint64(i)&bit == 0 {
				d.amps[i] = 0
			}
		}
	} else {
		f := complex(math.Sqrt(1-gamma), 0)
		for i := range d.amps {
			if uint64(i)&bit != 0 {
				d.amps[i] *= f
			}
		}
	}
	d.Normalize()
}

// RunDenseTrajectory evolves |init⟩ through circuit c with one stochastic
// noise trajectory and returns the final state. A nil or zero noise model
// reduces to ideal simulation.
func RunDenseTrajectory(c *Circuit, init *Dense, nm *NoiseModel, rng *rand.Rand) *Dense {
	d := init.Clone()
	for _, g := range c.Gates {
		d.ApplyGate(g)
		if !nm.IsZero() {
			nm.afterGateDense(d, g, rng)
		}
	}
	return d
}

// SampleDenseNoisy draws shots measurements from the noisy execution of c,
// using trajectories independent noise realizations (shots are split
// evenly across trajectories; trajectories ≤ shots). Readout errors are
// applied per shot.
//
// Trajectories fan out across the shared worker pool. Each one owns a
// SplitMix64-derived RNG stream rooted at a single draw from the caller's
// rng, and per-trajectory counts merge by commutative integer addition, so
// the result is bit-identical for any worker count.
func SampleDenseNoisy(c *Circuit, init *Dense, nm *NoiseModel, shots, trajectories int, rng *rand.Rand) map[bitvec.Vec]int {
	out, _ := SampleDenseNoisyCtx(context.Background(), c, init, nm, shots, trajectories, rng)
	return out
}

// SampleDenseNoisyCtx is SampleDenseNoisy with cooperative cancellation
// at trajectory granularity: once ctx is done no further trajectories
// start, in-flight ones are abandoned at their next gate, and the
// context's error is returned (with a nil count map). The uncancelled
// path is bit-identical to SampleDenseNoisy for any worker count.
func SampleDenseNoisyCtx(ctx context.Context, c *Circuit, init *Dense, nm *NoiseModel, shots, trajectories int, rng *rand.Rand) (map[bitvec.Vec]int, error) {
	if trajectories <= 0 || trajectories > shots {
		trajectories = shots
	}
	base := rng.Int63()
	perShare := 0
	extra := 0
	if trajectories > 0 {
		perShare = shots / trajectories
		extra = shots % trajectories
	}
	perTraj := make([]map[bitvec.Vec]int, trajectories)
	if nm.IsZero() {
		// Noise-free trajectories all evolve to the same state: evolve once
		// through the fused circuit (one sweep per fused op instead of one
		// per gate), then let every trajectory sample the shared read-only
		// register with its own rng stream. Counts match the per-trajectory
		// evolution up to fusion's matrix-product rounding.
		ideal := denseFromPool(init, ctx)
		defer ideal.release()
		if err := ideal.RunFusedCtx(ctx, Fuse(c)); err != nil {
			return nil, err
		}
		_ = parallel.ForCtx(ctx, trajectories, func(t int) {
			n := perShare
			if t < extra {
				n++
			}
			if n == 0 {
				return
			}
			perTraj[t] = ideal.Sample(parallel.NewRand(base, uint64(t)), n)
		})
	} else {
		_ = parallel.ForCtx(ctx, trajectories, func(t int) {
			n := perShare
			if t < extra {
				n++
			}
			if n == 0 {
				return
			}
			trng := parallel.NewRand(base, uint64(t))
			d := denseFromPool(init, ctx)
			defer d.release()
			for _, g := range c.Gates {
				if ctx.Err() != nil {
					return
				}
				d.ApplyGate(g)
				nm.afterGateDense(d, g, trng)
			}
			counts := d.Sample(trng, n)
			if nm.ReadoutError > 0 {
				// Iterate in sorted key order: readout flips consume the
				// trajectory rng, so map-iteration order must not leak in.
				flipped := make(map[bitvec.Vec]int, len(counts))
				for _, x := range sortedCountKeys(counts) {
					for i := 0; i < counts[x]; i++ {
						flipped[nm.ApplyReadout(x, trng)]++
					}
				}
				counts = flipped
			}
			perTraj[t] = counts
		})
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make(map[bitvec.Vec]int)
	for _, m := range perTraj {
		for x, cnt := range m {
			out[x] += cnt
		}
	}
	return out, nil
}

// sortedCountKeys returns the keys of a count map in deterministic order.
func sortedCountKeys(m map[bitvec.Vec]int) []bitvec.Vec {
	keys := make([]bitvec.Vec, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Compare(keys[j]) < 0 })
	return keys
}

// --- Sparse trajectory channels ---

// ApplyDepolarizingSparse injects, with probability p, a uniformly random
// Pauli error on qubit q of the sparse state.
func ApplyDepolarizingSparse(s *Sparse, q int, p float64, rng *rand.Rand) {
	if p <= 0 || rng.Float64() >= p {
		return
	}
	switch rng.Intn(3) {
	case 0:
		s.ApplyX(q)
	case 1:
		s.ApplyY(q)
	default:
		s.ApplyZ(q)
	}
}

// prob1Sparse returns P(qubit q = 1), accumulated in sorted support order.
func prob1Sparse(s *Sparse, q int) float64 {
	p := 0.0
	for _, k := range s.sortedSupport() {
		if k.Bit(q) {
			a := s.amps[k]
			p += real(a)*real(a) + imag(a)*imag(a)
		}
	}
	return p
}

// ApplyAmplitudeDampingSparse applies one trajectory step of amplitude
// damping with rate gamma to qubit q.
func ApplyAmplitudeDampingSparse(s *Sparse, q int, gamma float64, rng *rand.Rand) {
	if gamma <= 0 {
		return
	}
	p1 := prob1Sparse(s, q)
	if rng.Float64() < gamma*p1 {
		s.ApplyDecay(q)
	} else {
		f := complex(math.Sqrt(1-gamma), 0)
		for k, a := range s.amps {
			if k.Bit(q) {
				s.amps[k] = a * f
			}
		}
	}
	s.Normalize()
}

// ApplyPhaseDampingSparse applies one trajectory step of phase damping
// with rate gamma to qubit q.
func ApplyPhaseDampingSparse(s *Sparse, q int, gamma float64, rng *rand.Rand) {
	if gamma <= 0 {
		return
	}
	p1 := prob1Sparse(s, q)
	if rng.Float64() < gamma*p1 {
		for k := range s.amps {
			if !k.Bit(q) {
				delete(s.amps, k)
			}
		}
	} else {
		f := complex(math.Sqrt(1-gamma), 0)
		for k, a := range s.amps {
			if k.Bit(q) {
				s.amps[k] = a * f
			}
		}
	}
	s.Normalize()
}
