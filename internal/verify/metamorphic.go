package verify

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/cmplx"

	"rasengan/internal/bitvec"
	"rasengan/internal/core"
	"rasengan/internal/linalg"
	"rasengan/internal/parallel"
	"rasengan/internal/problems"
	"rasengan/internal/quantum"
	"rasengan/internal/service"
)

// --- problem transformations ---

func cloneProblem(p *problems.Problem) *problems.Problem {
	return &problems.Problem{
		Name:   p.Name,
		Family: p.Family,
		N:      p.N,
		Sense:  p.Sense,
		Obj:    p.Obj.Clone(),
		C:      p.C.Clone(),
		B:      append([]int64(nil), p.B...),
		Init:   p.Init,
		Meta:   p.Meta,
	}
}

// reverseRows reorders the constraint system (rows and right-hand sides
// reversed). The feasible set is identical; the RREF — and therefore the
// nullspace basis, the schedule, and the whole solve — is too, because
// reduced row echelon form is unique under row operations.
func reverseRows(p *problems.Problem) *problems.Problem {
	q := cloneProblem(p)
	rows := p.C.Rows
	q.C = linalg.NewIntMat(rows, p.C.Cols)
	q.B = make([]int64, rows)
	for r := 0; r < rows; r++ {
		src := rows - 1 - r
		for c := 0; c < p.C.Cols; c++ {
			q.C.Set(r, c, p.C.At(src, c))
		}
		q.B[r] = p.B[src]
	}
	return q
}

// permuteProblem relabels the variables: perm[i] is the new index of old
// variable i. Objective values, feasibility, and the optimum are invariant
// under the relabeling.
func permuteProblem(p *problems.Problem, perm []int) *problems.Problem {
	q := cloneProblem(p)
	q.Name = p.Name + "/permuted"
	q.C = linalg.NewIntMat(p.C.Rows, p.C.Cols)
	for r := 0; r < p.C.Rows; r++ {
		for c := 0; c < p.C.Cols; c++ {
			q.C.Set(r, perm[c], p.C.At(r, c))
		}
	}
	obj := problems.NewQuadObjective(p.N)
	obj.Constant = p.Obj.Constant
	for i, v := range p.Obj.Linear {
		obj.Linear[perm[i]] = v
	}
	for _, t := range p.Obj.Quad {
		obj.AddQuad(perm[t.I], perm[t.J], t.Coef)
	}
	obj.Normalize()
	q.Obj = obj
	q.Init = permuteVec(p.Init, perm)
	return q
}

func permuteVec(x bitvec.Vec, perm []int) bitvec.Vec {
	out := bitvec.New(x.Len())
	for i := 0; i < x.Len(); i++ {
		if x.Bit(i) {
			out.Set(perm[i], true)
		}
	}
	return out
}

func permuteU(u []int64, perm []int) []int64 {
	out := make([]int64, len(u))
	for i, v := range u {
		out[perm[i]] = v
	}
	return out
}

// scaleOffsetProblem returns p with objective f'(x) = s·f(x) + c (s > 0
// preserves the optimization sense).
func scaleOffsetProblem(p *problems.Problem, s, c float64) *problems.Problem {
	q := cloneProblem(p)
	q.Obj.Scale(s)
	q.Obj.Constant += c
	return q
}

// --- metamorphic checks ---

// scaleOffsetTransform is the affine objective map of the metamorphic
// check; both constants are exactly representable in binary so the
// algebraic identities below hold to float rounding, not decimal fuzz.
const (
	metaScale  = 3.5
	metaOffset = -2.25
)

// rowReorderReferenceCheck: reversing the constraint rows leaves the
// brute-force reference untouched (same feasible set, same optimum).
func (cr *caseRunner) rowReorderReferenceCheck() {
	p := cr.tc.p
	if cr.ref == nil || p.C.Rows < 2 {
		return
	}
	ref2, err := problems.ExactReference(reverseRows(p))
	if err != nil {
		cr.checkf("metamorphic_row_reorder_reference", false, 0, "reference on reordered rows failed: %v", err)
		return
	}
	ok := ref2.Opt == cr.ref.Opt && ref2.NumFeasible == cr.ref.NumFeasible && ref2.WorstCase == cr.ref.WorstCase
	cr.checkf("metamorphic_row_reorder_reference", ok, 0,
		"reordered rows changed the reference: opt %v→%v, feasible %d→%d",
		cr.ref.Opt, ref2.Opt, cr.ref.NumFeasible, ref2.NumFeasible)
}

// scaleOffsetCheck: with the same transition schedule and times, an
// affine objective map f → s·f + c must leave the output distribution
// byte-identical (the executor touches the objective only through
// feasibility) and map the energy expectation exactly affinely. With the
// same map applied to the reference optimum, the ARG at c = 0 is
// invariant.
func (cr *caseRunner) scaleOffsetCheck(ops []core.Transition, times []float64) {
	p := cr.tc.p
	exec1, err1 := core.NewExecutor(p, ops, core.ExecOptions{})
	p2 := scaleOffsetProblem(p, metaScale, metaOffset)
	exec2, err2 := core.NewExecutor(p2, ops, core.ExecOptions{})
	if err1 != nil || err2 != nil {
		cr.checkf("metamorphic_scale_offset", false, 0, "executor construction failed: %v / %v", err1, err2)
		return
	}
	d1, err1 := exec1.Run(times, nil)
	d2, err2 := exec2.Run(times, nil)
	if err1 != nil || err2 != nil {
		cr.checkf("metamorphic_scale_offset", false, 0, "executor run failed: %v / %v", err1, err2)
		return
	}
	if len(d1) != len(d2) {
		cr.checkf("metamorphic_scale_offset", false, 0,
			"distribution support changed under objective scaling: %d vs %d states", len(d1), len(d2))
		return
	}
	var e1, e2 float64
	distDrift := 0.0
	for _, x := range sortedVecKeys(d1) {
		if diff := math.Abs(d1[x] - d2[x]); diff > distDrift {
			distDrift = diff
		}
		e1 += d1[x] * p.Objective(x)
		e2 += d2[x] * p2.Objective(x)
	}
	want := metaScale*e1 + metaOffset
	eDrift := math.Abs(e2 - want)
	slack := EnergyTol * (1 + math.Abs(want))
	cr.checkf("metamorphic_scale_offset", distDrift == 0 && eDrift <= slack, math.Max(distDrift, eDrift),
		"distribution drift %.3g, energy %.12f vs affine-mapped %.12f", distDrift, e2, want)

	if cr.ref != nil && cr.ref.Opt != 0 {
		// ARG invariance under pure scaling (c = 0): |(sE_opt − sE)/(sE_opt)|
		// equals |(E_opt − E)/E_opt| identically.
		arg1 := math.Abs((cr.ref.Opt - e1) / cr.ref.Opt)
		sOpt := metaScale * cr.ref.Opt
		e1s := 0.0
		for _, x := range sortedVecKeys(d1) {
			e1s += d1[x] * (metaScale * p.Objective(x))
		}
		arg2 := math.Abs((sOpt - e1s) / sOpt)
		drift := math.Abs(arg1 - arg2)
		cr.checkf("metamorphic_arg_scale_invariant", drift <= EnergyTol, drift,
			"ARG %.12f vs %.12f under objective scaling", arg1, arg2)
	}
}

// permutationCheck: relabeling variables relabels the evolved state. The
// permuted problem evolved through the permuted transitions must carry
// exactly the amplitudes of the original state on the relabeled basis
// states, and the brute-force reference values must be unchanged.
func (cr *caseRunner) permutationCheck(sp *quantum.Sparse, ops []core.Transition, times []float64) {
	p := cr.tc.p
	perm := cr.rng.Perm(p.N)
	p2 := permuteProblem(p, perm)
	if err := p2.Validate(); err != nil {
		cr.checkf("metamorphic_permutation", false, 0, "permuted problem invalid: %v", err)
		return
	}
	sp2 := quantum.NewSparse(p2.Init)
	for i, op := range ops {
		sp2.ApplyTransition(permuteU(op.U, perm), times[i])
	}
	if sp2.Size() != sp.Size() {
		cr.checkf("metamorphic_permutation", false, 0,
			"support size changed under relabeling: %d vs %d", sp.Size(), sp2.Size())
		return
	}
	maxDiff := 0.0
	for _, x := range sp.Support() {
		diff := cmplx.Abs(sp2.Amplitude(permuteVec(x, perm)) - sp.Amplitude(x))
		if diff > maxDiff {
			maxDiff = diff
		}
	}
	cr.checkf("metamorphic_permutation", maxDiff < AmpTol, maxDiff,
		"max |Δamp| = %.3g under variable relabeling", maxDiff)

	if cr.ref != nil {
		ref2, err := problems.ExactReference(p2)
		ok := err == nil && ref2.Opt == cr.ref.Opt && ref2.NumFeasible == cr.ref.NumFeasible &&
			ref2.WorstCase == cr.ref.WorstCase
		cr.checkf("metamorphic_permutation_reference", ok, 0,
			"permuted reference diverged (err=%v)", err)
	}
}

// specCanonicalCheck: every wire spelling of the same spec — reordered
// fields, whitespace, explicit zero case — must hash to the same content
// address, and an inline instance must hash identically however its JSON
// fields are ordered.
func (cr *caseRunner) specCanonicalCheck() {
	tc := cr.tc
	if tc.isBench {
		spec := problems.SpecFor(problems.Benchmark{Family: tc.family, Scale: tc.scale}, tc.caseIdx)
		h1, err1 := spec.Hash()
		alt := fmt.Sprintf("\n{ \"case\": %d,\t\"scale\": %d, \"family\": %q }\n", tc.caseIdx, tc.scale, tc.family)
		spec2, err2 := problems.ParseSpec([]byte(alt))
		if err1 != nil || err2 != nil {
			cr.checkf("spec_canonical_hash", false, 0, "spec hashing failed: %v / %v", err1, err2)
			return
		}
		h2, _ := spec2.Hash()
		cr.checkf("spec_canonical_hash", h1 == h2, 0,
			"reordered generator spec hashed differently: %s vs %s", h1, h2)
	}
	// Inline-instance canonicalization: serialize, then reorder the JSON
	// object keys (map round-trip sorts them); both spellings must share
	// one canonical hash.
	data, err := problems.ToJSON(tc.p)
	if err != nil {
		cr.checkf("spec_inline_canonical_hash", false, 0, "instance serialization failed: %v", err)
		return
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		cr.checkf("spec_inline_canonical_hash", false, 0, "re-parse failed: %v", err)
		return
	}
	alt, _ := json.Marshal(m)
	ha, erra := (&problems.Spec{Problem: data}).Hash()
	hb, errb := (&problems.Spec{Problem: alt}).Hash()
	ok := erra == nil && errb == nil && ha == hb
	cr.checkf("spec_inline_canonical_hash", ok, 0,
		"inline instance hashed differently across spellings (%v/%v): %s vs %s", erra, errb, ha, hb)
}

// --- solve-level determinism checks ---

// solveChecks runs the expensive full-solve metamorphic relations: the
// deterministic wire payload must be byte-identical for workers=1 vs
// workers=N, for a repeated identical solve (the cache-replay contract:
// a hit returns exactly the bytes a fresh solve would produce), and for
// the row-reordered constraint system (RREF uniqueness).
func (cr *caseRunner) solveChecks() {
	p := cr.tc.p
	opts := core.Options{MaxIter: cr.cfg.SolveIters, Seed: 1}
	prev := parallel.Workers()
	defer parallel.SetWorkers(prev)

	parallel.SetWorkers(1)
	pay1, err1 := solvePayload(p, opts)
	parallel.SetWorkers(cr.cfg.Workers)
	payN, errN := solvePayload(p, opts)
	payR, errR := solvePayload(p, opts)
	if err1 != nil || errN != nil || errR != nil {
		cr.checkf("determinism_workers", false, 0, "solve failed: %v / %v / %v", err1, errN, errR)
		return
	}
	cr.checkf("determinism_workers", bytes.Equal(pay1, payN), 0,
		"workers=1 and workers=%d produced different payloads", cr.cfg.Workers)
	cr.checkf("determinism_repeat", bytes.Equal(payN, payR), 0,
		"two identical solves produced different payloads (cache-replay contract broken)")

	if p.C.Rows >= 2 {
		payRow, errRow := solvePayload(reverseRows(p), opts)
		ok := errRow == nil && bytes.Equal(payN, payRow)
		cr.checkf("metamorphic_row_reorder_solve", ok, 0,
			"row-reordered constraints changed the solve payload (err=%v)", errRow)
	}

	// Engine identity: the two engines are bit-compatible, so a full solve
	// must serialize to byte-identical wire payloads under either one.
	mo := opts
	mo.Exec.ForceMapEngine = true
	payM, errM := solvePayload(p, mo)
	payC, errC := solvePayload(p, opts)
	okEng := errM == nil && errC == nil && bytes.Equal(payM, payC)
	cr.checkf("engine_payload_identity", okEng, 0,
		"map and compiled engines produced different solve payloads (%v / %v)", errM, errC)

	// Persistence identity: checkpointing must be invisible to the result
	// (same payload with per-iteration snapshots on), and resuming from a
	// mid-run snapshot must land on the byte-identical payload too.
	var snaps [][]byte
	cko := opts
	cko.Checkpoint = &core.CheckpointOptions{
		Every: 1,
		Write: func(data []byte) error {
			snaps = append(snaps, append([]byte(nil), data...))
			return nil
		},
	}
	payK, errK := solvePayload(p, cko)
	okCk := errK == nil && len(snaps) > 0 && bytes.Equal(payN, payK)
	cr.checkf("checkpoint_payload_identity", okCk, 0,
		"per-iteration checkpointing changed the solve payload (err=%v, %d snapshots)", errK, len(snaps))

	if len(snaps) > 0 {
		ck, errP := core.ParseCheckpoint(snaps[len(snaps)/2])
		if errP != nil {
			cr.checkf("resume_identity", false, 0, "mid-run checkpoint failed to parse: %v", errP)
		} else {
			ro := opts
			ro.Resume = ck
			payRes, errRes := solvePayload(p, ro)
			okRes := errRes == nil && bytes.Equal(payN, payRes)
			cr.checkf("resume_identity", okRes, 0,
				"resume from a mid-run checkpoint produced a different payload (err=%v)", errRes)
		}
	}
}

// solvePayload runs a full solve and renders the service's deterministic
// wire payload — the byte string every determinism relation compares.
func solvePayload(p *problems.Problem, opts core.Options) ([]byte, error) {
	res, err := core.Solve(context.Background(), p, opts)
	if err != nil {
		return nil, err
	}
	return service.MarshalResultPayload(p, res)
}
