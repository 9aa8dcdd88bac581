package verify

import (
	"fmt"
	"math/rand"
	"strings"

	"rasengan/internal/core"
	"rasengan/internal/problems"
)

// caseRunner executes every applicable check against one test case and
// accumulates the outcomes into a CaseReport.
type caseRunner struct {
	cfg Config
	tc  *testCase
	rng *rand.Rand
	// ref is the brute-force ground truth, computed once per case when the
	// register is narrow enough to enumerate (nil otherwise; checks that
	// need it skip themselves).
	ref *problems.Reference
	// faultInjected records that the deliberate amplitude corruption of
	// Config.InjectAmplitudeFault was actually applied on this case (the
	// self-test asserts injection happened AND was detected).
	faultInjected bool

	report CaseReport
}

// checkf records one check outcome. Detail is rendered only on failure;
// Divergence is kept either way so reports expose the health margin of
// passing numerical checks.
func (cr *caseRunner) checkf(name string, ok bool, div float64, format string, args ...any) {
	c := Check{Name: name, OK: ok, Divergence: div}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
		cr.report.Failed++
	}
	cr.report.Checks = append(cr.report.Checks, c)
}

// run executes the case. solve enables the expensive full-solve
// metamorphic checks.
func (cr *caseRunner) run(solve bool) {
	tc := cr.tc
	p := tc.p

	if tc.wantEmptyFeasible {
		cr.emptyFeasibleChecks()
		return
	}
	if tc.wantPipelineError {
		_, err := core.BuildBasis(p, core.BasisOptions{})
		cr.checkf("pipeline_graceful_error", err != nil, 0,
			"BuildBasis succeeded on a trivial-nullspace system; expected a descriptive error")
		return
	}

	ops := tc.ops
	if ops == nil {
		b, err := core.BuildBasis(p, core.BasisOptions{})
		if err != nil {
			cr.checkf("pipeline", false, 0, "BuildBasis failed: %v", err)
			return
		}
		ops = core.BuildSchedule(p, b, core.ScheduleOptions{}).Ops
	}
	if len(ops) == 0 {
		cr.checkf("schedule_nonempty", false, 0, "schedule produced zero operators")
		return
	}
	if len(ops) > maxOracleOps {
		ops = ops[:maxOracleOps]
	}
	times := make([]float64, len(ops))
	for i := range times {
		times[i] = 0.05 + cr.rng.Float64()*3.0
	}

	if p.N <= maxRefVars {
		ref, err := problems.ExactReference(p)
		if err != nil {
			cr.checkf("brute_force_reference", false, 0, "ExactReference failed: %v", err)
			return
		}
		cr.ref = &ref
	}

	// Differential ladder: sparse invariants, then each costlier rung.
	sp := cr.sparseLayerChecks(ops, times)
	cr.denseDiffCheck(sp, ops, times)
	cr.compiledDiffCheck(sp, ops, times)
	cr.engineEquivalenceCheck(ops, times)
	cr.gateDiffCheck(ops, times)
	cr.decomposedDiffCheck(ops, times)
	cr.energyBoundChecks(ops, times)
	cr.sampledEnergyChecks(sp)

	// Metamorphic relations.
	cr.rowReorderReferenceCheck()
	cr.scaleOffsetCheck(ops, times)
	cr.permutationCheck(sp, ops, times)
	cr.specCanonicalCheck()

	if solve {
		cr.solveChecks()
	}
}

// emptyFeasibleChecks asserts that a contradictory constraint system is
// rejected gracefully at every entry point — no panics, no silent
// success.
func (cr *caseRunner) emptyFeasibleChecks() {
	p := cr.tc.p
	feas := problems.EnumerateFeasible(p, 0)
	cr.checkf("empty_feasible_enumeration", len(feas) == 0, 0,
		"enumeration found %d states in an infeasible system", len(feas))
	_, refErr := problems.ExactReference(p)
	cr.checkf("empty_feasible_reference", refErr != nil, 0,
		"ExactReference succeeded on an empty feasible set")
	cr.checkf("empty_feasible_validate", p.Validate() != nil, 0,
		"Validate accepted a problem with no feasible seed")
	_, basisErr := core.BuildBasis(p, core.BasisOptions{})
	cr.checkf("empty_feasible_basis", basisErr != nil, 0,
		"BuildBasis succeeded on a contradictory system")
}

// Run executes a full verification pass: the fixed adversarial corner
// suite plus cfg.Cases seeded randomized benchmark cases, each pushed
// through the differential oracle and the metamorphic relations. Two runs
// with the same Config are identical.
func Run(cfg Config) *Report {
	cfg = cfg.withDefaults()
	master := rand.New(rand.NewSource(cfg.Seed))

	var cases []*testCase
	if !cfg.SkipCorners {
		cases = append(cases, cornerCases()...)
	}
	firstRandom := len(cases)
	for i := 0; i < cfg.Cases; i++ {
		cases = append(cases, randomCase(master, cfg.MaxScale))
	}

	rep := &Report{Seed: cfg.Seed, CaseCount: cfg.Cases}
	add := func(cr *caseRunner) bool {
		rep.Cases = append(rep.Cases, cr.report)
		rep.NumChecks += len(cr.report.Checks)
		rep.NumFailed += cr.report.Failed
		for _, c := range cr.report.Checks {
			if strings.Contains(c.Name, "amplitude") && c.Divergence > rep.MaxAmpDivergence {
				rep.MaxAmpDivergence = c.Divergence
			}
		}
		if cfg.FailFast && cr.report.Failed > 0 {
			rep.StoppedEarly = true
		}
		return !rep.StoppedEarly
	}
	for idx, tc := range cases {
		cr := &caseRunner{
			cfg:    cfg,
			tc:     tc,
			rng:    rand.New(rand.NewSource(master.Int63())),
			report: CaseReport{Case: tc.name, NumVars: tc.p.N},
		}
		solve := tc.solveEligible && cfg.SolveEvery > 0 && (idx-firstRandom)%cfg.SolveEvery == 0
		guarded(cr, func() { cr.run(solve) })
		if !add(cr) {
			return rep
		}
	}
	// The noisy-device solves are full solves too: they run whenever the
	// full-solve checks do.
	if cfg.SolveEvery > 0 {
		for _, nc := range noisyCases() {
			cr := &caseRunner{cfg: cfg, tc: &testCase{name: nc.name(), p: nc.p}, report: CaseReport{Case: nc.name(), NumVars: nc.p.N}}
			guarded(cr, func() { cr.runNoisyCase(nc) })
			if !add(cr) {
				return rep
			}
		}
	}
	return rep
}

// guarded runs one case's checks f, isolating a panic: it becomes a failed
// check of cr instead of taking down the whole verification run, so one
// broken corner still leaves a complete report for every other case.
func guarded(cr *caseRunner, f func()) {
	defer func() {
		if r := recover(); r != nil {
			cr.checkf("panic", false, 0, "case panicked: %v", r)
		}
	}()
	f()
}
