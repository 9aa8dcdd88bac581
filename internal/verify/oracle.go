package verify

import (
	"math"
	"math/cmplx"

	"rasengan/internal/bitvec"
	"rasengan/internal/core"
	"rasengan/internal/quantum"
	"rasengan/internal/transpile"
)

// Size caps of the differential checks. Each rung of the oracle ladder
// costs exponentially more than the one below it, so each has its own
// ceiling; cases above a ceiling simply skip that rung (the sparse-level
// invariants still run at any width).
const (
	// maxDenseDiffVars caps the sparse-vs-dense transition-level diff
	// (2^n amplitudes).
	maxDenseDiffVars = 18
	// maxGateDiffVars caps the gate-level OperatorCircuit diff (dense
	// gate application is ~gates·2^n).
	maxGateDiffVars = 16
	// maxDecomposedWidth caps the transpiled-circuit diff, including the
	// V-chain ancillas Decompose borrows above the register.
	maxDecomposedWidth = 14
	// maxRefVars caps brute-force feasible enumeration.
	maxRefVars = 24
	// maxOracleOps bounds how many schedule operators the per-layer
	// differential loops replay (full schedules can reach hundreds of
	// operators on non-TU instances; the first window exercises every
	// distinct vector shape).
	maxOracleOps = 48
	// maxGateOps / maxDecompOps bound the costlier gate-level replays.
	maxGateOps   = 24
	maxDecompOps = 10
)

// evolveSparse replays ops (with the given times) on a fresh sparse state
// seeded at the problem's feasible solution.
func evolveSparse(init bitvec.Vec, ops []core.Transition, times []float64) *quantum.Sparse {
	st := quantum.NewSparse(init)
	for i, op := range ops {
		st.ApplyTransition(op.U, times[i])
	}
	return st
}

// sparseLayerChecks applies ops layer by layer, asserting after every
// transition that (a) the norm stays 1 and (b) the support never leaves
// the feasible set — the subspace-preservation guarantee of Definition 1
// that the whole sparse-simulation strategy rests on.
func (cr *caseRunner) sparseLayerChecks(ops []core.Transition, times []float64) *quantum.Sparse {
	st := quantum.NewSparse(cr.tc.p.Init)
	worstNorm := 0.0
	infeasible := 0
	firstBad := ""
	for i, op := range ops {
		st.ApplyTransition(op.U, times[i])
		// Sum the norm over the sorted support (not st.Norm(), whose
		// map-order accumulation wobbles at the last ulp between runs):
		// the report itself must be bit-reproducible for a given seed.
		nrm := 0.0
		for _, x := range st.Support() {
			a := st.Amplitude(x)
			nrm += real(a)*real(a) + imag(a)*imag(a)
		}
		if dev := math.Abs(nrm - 1); dev > worstNorm {
			worstNorm = dev
		}
		for _, x := range st.Support() {
			if !cr.tc.p.Feasible(x) {
				infeasible++
				if firstBad == "" {
					firstBad = x.String()
				}
			}
		}
	}
	cr.checkf("norm_conservation", worstNorm <= NormTol, worstNorm,
		"worst |norm-1| = %.3g over %d layers", worstNorm, len(ops))
	cr.checkf("feasibility_preservation", infeasible == 0, 0,
		"%d infeasible support states (first: %s)", infeasible, firstBad)
	return st
}

// alignedMaxDiff compares a dense register against the sparse reference
// over every basis state, after aligning the dense state's global phase
// to the sparse one at the dense state's largest amplitude. Gate-level
// circuits are allowed to differ from exp(-i·H^τ·t) by a global phase
// (OperatorCircuit documents e^{-it} on support-1 vectors), which is
// unobservable; the alignment cancels it without masking any relative
// error.
func alignedMaxDiff(sp *quantum.Sparse, d *quantum.Dense, n int, align bool) float64 {
	phase := complex(1, 0)
	if align {
		bestI, bestA := uint64(0), 0.0
		for i := uint64(0); i < uint64(1)<<uint(n); i++ {
			if a := cmplx.Abs(d.Amplitude(i)); a > bestA {
				bestI, bestA = i, a
			}
		}
		if bestA > 1e-9 {
			r := sp.Amplitude(bitvec.FromUint64(bestI, n)) / d.Amplitude(bestI)
			if m := cmplx.Abs(r); m > 1e-9 {
				phase = r / complex(m, 0)
			}
		}
	}
	maxDiff := 0.0
	for i := uint64(0); i < uint64(1)<<uint(n); i++ {
		sa := sp.Amplitude(bitvec.FromUint64(i, n))
		if diff := cmplx.Abs(phase*d.Amplitude(i) - sa); diff > maxDiff {
			maxDiff = diff
		}
	}
	return maxDiff
}

// denseDiffCheck evolves the dense simulator through the same transition
// sequence and asserts amplitude-level agreement with the sparse state.
// Both implementations pair states with identical arithmetic, so the only
// legitimate divergence source is the sparse simulator's 1e-14 amplitude
// pruning. When fault injection is on, the sparse operand is a corrupted
// clone — a healthy oracle must then flag the divergence.
func (cr *caseRunner) denseDiffCheck(sp *quantum.Sparse, ops []core.Transition, times []float64) {
	p := cr.tc.p
	if p.N > maxDenseDiffVars {
		return
	}
	d := quantum.NewDenseBasis(p.Init)
	for i, op := range ops {
		d.ApplyTransition(op.U, times[i])
	}
	ref := sp
	if cr.cfg.InjectAmplitudeFault {
		ref = sp.Clone()
		sup := ref.Support()
		x := sup[0]
		for _, y := range sup { // corrupt the largest amplitude
			if cmplx.Abs(ref.Amplitude(y)) > cmplx.Abs(ref.Amplitude(x)) {
				x = y
			}
		}
		ref.SetAmplitude(x, ref.Amplitude(x)+complex(faultEpsilon, 0))
		cr.faultInjected = true
	}
	diff := alignedMaxDiff(ref, d, p.N, false)
	cr.checkf("sparse_dense_amplitude", diff < AmpTol, diff,
		"max |Δamp| = %.3g over %d ops (tolerance %.0e)", diff, len(ops), AmpTol)
}

// compiledDiffCheck evolves the compiled feasible-subspace engine through
// the same transition sequence and asserts amplitude-level agreement with
// the sparse reference. Unlike the dense rungs this one runs at any
// register width: the compiled space is polynomial in the reachable
// feasible support, not 2^n. The two engines share pairing arithmetic and
// pruning, so agreement is expected to be exact; the check still measures
// and reports the divergence against AmpTol. A closure over the compile
// budget fails the rung: the production executor cannot run it either.
func (cr *caseRunner) compiledDiffCheck(sp *quantum.Sparse, ops []core.Transition, times []float64) {
	p := cr.tc.p
	opsU := make([][]int64, len(ops))
	for i, op := range ops {
		opsU[i] = op.U
	}
	cs, err := quantum.CompileSpace(p.Init, opsU, 0)
	if err != nil {
		cr.checkf("compiled_engine_amplitude", false, 0, "compile failed: %v", err)
		return
	}
	st := cs.NewState()
	if !st.ResetState(p.Init) {
		cr.checkf("compiled_engine_seed", false, 0,
			"feasible seed missing from the compiled space (%d states)", cs.Size())
		return
	}
	for i := range opsU {
		st.ApplyTransition(i, times[i])
	}
	ref := sp
	if cr.cfg.InjectAmplitudeFault {
		ref = sp.Clone()
		sup := ref.Support()
		x := sup[0]
		for _, y := range sup { // corrupt the largest amplitude
			if cmplx.Abs(ref.Amplitude(y)) > cmplx.Abs(ref.Amplitude(x)) {
				x = y
			}
		}
		ref.SetAmplitude(x, ref.Amplitude(x)+complex(faultEpsilon, 0))
		cr.faultInjected = true
	}
	cr.checkf("compiled_engine_support", ref.Size() == st.Size(), 0,
		"support %d (sparse) vs %d (compiled) over %d ops", ref.Size(), st.Size(), len(ops))
	maxDiff := 0.0
	for _, x := range ref.Support() {
		if diff := cmplx.Abs(ref.Amplitude(x) - st.Amplitude(x)); diff > maxDiff {
			maxDiff = diff
		}
	}
	cr.checkf("compiled_engine_amplitude", maxDiff < AmpTol, maxDiff,
		"max |Δamp| = %.3g over %d ops (compiled space: %d states, %d pairs)",
		maxDiff, len(ops), cs.Size(), cs.NumPairs())
}

// engineEquivalenceCheck runs the production executor's exact path under
// both engines and asserts the purified output distributions are identical
// — the executor-level form of the compiled rung, covering segmenting,
// purification, and normalization on top of raw evolution.
func (cr *caseRunner) engineEquivalenceCheck(ops []core.Transition, times []float64) {
	p := cr.tc.p
	mapEx, errM := core.NewExecutor(p, ops, core.ExecOptions{ForceMapEngine: true})
	compEx, errC := core.NewExecutor(p, ops, core.ExecOptions{})
	if errM != nil || errC != nil {
		cr.checkf("engine_distribution_identity", false, 0,
			"executor construction failed: %v / %v", errM, errC)
		return
	}
	dm, errM := mapEx.Run(times, nil)
	dc, errC := compEx.Run(times, nil)
	if errM != nil || errC != nil {
		cr.checkf("engine_distribution_identity", false, 0,
			"exact run failed: %v / %v", errM, errC)
		return
	}
	mismatch := len(dm) != len(dc)
	maxDiff := 0.0
	for _, x := range sortedVecKeys(dm) {
		pc, ok := dc[x]
		if !ok {
			mismatch = true
			continue
		}
		if diff := math.Abs(dm[x] - pc); diff > maxDiff {
			maxDiff = diff
		}
	}
	cr.checkf("engine_distribution_identity", !mismatch && maxDiff == 0, maxDiff,
		"map and compiled engines disagree: support mismatch=%v, max |Δp| = %.3g",
		mismatch, maxDiff)
}

// gateDiffCheck executes the gate-level OperatorCircuit of each
// transition on the dense simulator and compares (phase-aligned) against
// a sparse state evolved through the analytic exp(-i·H^τ·t) — the check
// that the compiled circuit really implements the transition Hamiltonian.
func (cr *caseRunner) gateDiffCheck(ops []core.Transition, times []float64) {
	p := cr.tc.p
	if p.N > maxGateDiffVars {
		return
	}
	gateOps := ops
	if len(gateOps) > maxGateOps {
		gateOps = gateOps[:maxGateOps]
	}
	d := quantum.NewDenseBasis(p.Init)
	for i, op := range gateOps {
		d.Run(op.OperatorCircuit(p.N, times[i]))
	}
	sp := evolveSparse(p.Init, gateOps, times)
	diff := alignedMaxDiff(sp, d, p.N, true)
	cr.checkf("gate_circuit_amplitude", diff < AmpTol, diff,
		"max phase-aligned |Δamp| = %.3g over %d operator circuits", diff, len(gateOps))
}

// decomposedDiffCheck runs the transpiled (MCP-free, V-chain ancilla)
// circuits on a widened dense register: the main-register amplitudes must
// still match the analytic evolution, and the borrowed ancillas must
// return clean (zero mass outside the ancilla-|0⟩ subspace).
func (cr *caseRunner) decomposedDiffCheck(ops []core.Transition, times []float64) {
	p := cr.tc.p
	decompOps := ops
	if len(decompOps) > maxDecompOps {
		decompOps = decompOps[:maxDecompOps]
	}
	circs := make([]*quantum.Circuit, len(decompOps))
	width := p.N
	for i, op := range decompOps {
		circs[i] = transpile.Decompose(op.OperatorCircuit(p.N, times[i]))
		if circs[i].NumQubits > width {
			width = circs[i].NumQubits
		}
	}
	if width > maxDecomposedWidth {
		return
	}
	// Seed |Init⟩ on the main register, ancillas |0⟩.
	d := denseBasisWidened(p.Init, width)
	for _, c := range circs {
		d.Run(c)
	}
	sp := evolveSparse(p.Init, decompOps, times)

	ancMass := 0.0
	maxDiff := 0.0
	mainStates := uint64(1) << uint(p.N)
	// Phase-align on the largest main-register amplitude.
	bestI, bestA := uint64(0), 0.0
	for i := uint64(0); i < mainStates; i++ {
		if a := cmplx.Abs(d.Amplitude(i)); a > bestA {
			bestI, bestA = i, a
		}
	}
	phase := complex(1, 0)
	if bestA > 1e-9 {
		r := sp.Amplitude(bitvec.FromUint64(bestI, p.N)) / d.Amplitude(bestI)
		if m := cmplx.Abs(r); m > 1e-9 {
			phase = r / complex(m, 0)
		}
	}
	for i := uint64(0); i < uint64(1)<<uint(width); i++ {
		if i >= mainStates {
			ancMass += d.Probability(i)
			continue
		}
		sa := sp.Amplitude(bitvec.FromUint64(i, p.N))
		if diff := cmplx.Abs(phase*d.Amplitude(i) - sa); diff > maxDiff {
			maxDiff = diff
		}
	}
	cr.checkf("transpiled_circuit_amplitude", maxDiff < AmpTol, maxDiff,
		"max |Δamp| = %.3g over %d decomposed circuits (width %d)", maxDiff, len(decompOps), width)
	cr.checkf("transpiled_ancillas_clean", ancMass < AmpTol, ancMass,
		"ancilla-subspace mass %.3g after V-chain uncompute", ancMass)
}

// denseBasisWidened returns |0...0, x⟩ on a width-qubit register whose low
// x.Len() qubits hold the basis state x.
func denseBasisWidened(x bitvec.Vec, width int) *quantum.Dense {
	d := quantum.NewDense(width)
	for q := 0; q < x.Len(); q++ {
		if x.Bit(q) {
			d.ApplyGate(quantum.Gate{Kind: quantum.GateX, Qubits: []int{q}})
		}
	}
	return d
}

// energyBoundChecks runs the production executor (exact path) at the
// case's times and asserts the resulting distribution is a probability
// distribution over feasible states whose energy expectation lies within
// the brute-force bounds [E_opt, E_worst].
func (cr *caseRunner) energyBoundChecks(ops []core.Transition, times []float64) {
	p := cr.tc.p
	if cr.ref == nil {
		return
	}
	exec, err := core.NewExecutor(p, ops, core.ExecOptions{})
	if err != nil {
		cr.checkf("energy_executor", false, 0, "executor construction failed: %v", err)
		return
	}
	dist, err := exec.Run(times, nil)
	if err != nil {
		cr.checkf("energy_executor", false, 0, "exact run failed: %v", err)
		return
	}
	mass := 0.0
	infeasible := 0
	energy := 0.0
	for _, x := range sortedVecKeys(dist) {
		pr := dist[x]
		mass += pr
		if !p.Feasible(x) {
			infeasible++
		}
		energy += pr * p.Objective(x)
	}
	cr.checkf("distribution_normalized", math.Abs(mass-1) <= NormTol, math.Abs(mass-1),
		"probability mass %.12f", mass)
	cr.checkf("distribution_feasible", infeasible == 0, 0,
		"%d infeasible states in the purified distribution", infeasible)
	lo, hi := cr.ref.Opt, cr.ref.WorstCase
	if lo > hi {
		lo, hi = hi, lo
	}
	slack := EnergyTol * (1 + math.Abs(hi))
	ok := energy >= lo-slack && energy <= hi+slack
	cr.checkf("energy_within_bounds", ok, 0,
		"E = %.9f outside brute-force bounds [%.9f, %.9f]", energy, lo, hi)
}

// sampledEnergyChecks draws seeded measurements from the evolved state
// and asserts every sampled solution is feasible with an energy inside
// the brute-force bounds.
func (cr *caseRunner) sampledEnergyChecks(sp *quantum.Sparse) {
	if cr.ref == nil {
		return
	}
	p := cr.tc.p
	lo, hi := cr.ref.Opt, cr.ref.WorstCase
	if lo > hi {
		lo, hi = hi, lo
	}
	slack := EnergyTol * (1 + math.Abs(hi))
	bad := 0
	for x := range sp.Sample(cr.rng, 256) {
		v := p.Objective(x)
		if !p.Feasible(x) || v < lo-slack || v > hi+slack {
			bad++
		}
	}
	cr.checkf("sampled_energy_bounds", bad == 0, 0,
		"%d sampled states infeasible or out of [%.6f, %.6f]", bad, lo, hi)
}

func sortedVecKeys(d map[bitvec.Vec]float64) []bitvec.Vec {
	out := make([]bitvec.Vec, 0, len(d))
	for k := range d {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Compare(out[j-1]) < 0; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
