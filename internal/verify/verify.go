// Package verify is the repository's differential- and metamorphic-testing
// subsystem: an always-on correctness oracle that cross-checks the sparse
// feasible-subspace simulator, the dense statevector simulator, and the
// compiled gate-level circuits against each other and against exact
// brute-force references, on randomized problems drawn from seeded
// property-based generators.
//
// The oracle hierarchy is (DESIGN.md §9):
//
//	brute force (problems.ExactReference — ground truth for E_opt, bounds)
//	  └─ dense statevector (quantum.Dense — exact, 2^n, gate- and
//	     transition-level)
//	      └─ sparse feasible-subspace (quantum.Sparse — exact on the
//	         feasible span, the production path)
//
// Every check either compares two rungs of that ladder amplitude-by-
// amplitude (max |Δamp| < AmpTol) or asserts a metamorphic relation: a
// problem transformation with a provable effect on the output (variable
// permutation, objective scaling/offset, constraint row reordering,
// worker-count changes, cache-hit vs cache-miss replay).
//
// The package is consumed three ways: `go test ./internal/verify` (tiered
// by -short), `go test -fuzz` targets for the spec codec and circuit
// builder, and the rasengan-verify CLI, which runs Run with a seeded case
// count and exits nonzero on the first divergence. Every future
// performance PR is expected to pass `rasengan-verify` unchanged.
package verify

import (
	"fmt"
	"strings"
)

// Tolerances of the numerical checks. AmpTol is the headline bound of the
// differential oracle: the sparse and dense simulators perform the same
// pairing arithmetic in the same order, so their divergence on any
// feasible-seeded transition circuit should be at the level of the sparse
// simulator's amplitude pruning (1e-14), far below this bound. Gate-level
// execution accumulates one ulp per gate and stays below it as well.
const (
	// AmpTol bounds per-amplitude divergence between simulators.
	AmpTol = 1e-9
	// NormTol bounds |⟨ψ|ψ⟩ − 1| after every transition layer.
	NormTol = 1e-9
	// EnergyTol is the absolute slack applied to brute-force energy
	// bounds and metamorphic energy relations.
	EnergyTol = 1e-9
)

// Check is the outcome of one named verification on one case.
type Check struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	// Detail explains a failure (or carries a notable measurement on
	// success, e.g. the observed maximum divergence).
	Detail string `json:"detail,omitempty"`
	// Divergence is the measured maximum deviation for numerical checks
	// (0 for structural ones).
	Divergence float64 `json:"divergence,omitempty"`
}

// CaseReport collects every check run against one generated case.
type CaseReport struct {
	Case    string  `json:"case"`
	NumVars int     `json:"num_vars"`
	Checks  []Check `json:"checks"`
	Failed  int     `json:"failed"`
}

// Report is the full outcome of a verification run, JSON-serializable for
// the rasengan-verify CLI and CI artifacts.
type Report struct {
	Seed      int64        `json:"seed"`
	CaseCount int          `json:"case_count"`
	Cases     []CaseReport `json:"cases"`

	NumChecks int `json:"num_checks"`
	NumFailed int `json:"num_failed"`
	// MaxAmpDivergence is the largest amplitude divergence observed by
	// any differential check across the run — the health margin against
	// AmpTol.
	MaxAmpDivergence float64 `json:"max_amp_divergence"`
	// StoppedEarly reports that the run aborted at the first failing
	// case (Config.FailFast).
	StoppedEarly bool `json:"stopped_early,omitempty"`
}

// OK reports whether every check passed.
func (r *Report) OK() bool { return r.NumFailed == 0 }

// Summary renders a short human-readable digest.
func (r *Report) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "verify: %d cases, %d checks, %d failed (seed %d, max |Δamp| %.3g)",
		len(r.Cases), r.NumChecks, r.NumFailed, r.Seed, r.MaxAmpDivergence)
	if r.StoppedEarly {
		sb.WriteString(" [stopped at first divergence]")
	}
	if r.NumFailed > 0 {
		for _, c := range r.Cases {
			for _, ch := range c.Checks {
				if !ch.OK {
					fmt.Fprintf(&sb, "\n  FAIL %s: %s: %s", c.Case, ch.Name, ch.Detail)
				}
			}
		}
	}
	return sb.String()
}

// Config parameterizes a verification run. The zero value is the CI
// smoke configuration documented on each field.
type Config struct {
	// Cases is the number of randomized benchmark-derived cases to
	// generate (default 25). The fixed adversarial corner suite always
	// runs in addition, unless SkipCorners is set.
	Cases int
	// Seed drives every random choice (case selection, evolution times,
	// permutations); identical (Cases, Seed) runs are identical.
	Seed int64
	// MaxScale caps the benchmark scale drawn for randomized cases
	// (default 2; the full tier uses 3+).
	MaxScale int
	// SolveEvery runs the expensive full-solve checks (row-reorder
	// solve equality, workers=1 vs workers=N, cache payload identity) on
	// every SolveEvery-th randomized case (default 5; negative disables).
	SolveEvery int
	// SolveIters is the optimizer iteration budget of full-solve checks
	// (default 25).
	SolveIters int
	// Workers is the alternate worker count of the determinism check
	// (default 8).
	Workers int
	// FailFast stops at the first case with a failing check.
	FailFast bool
	// SkipCorners drops the fixed adversarial corner suite.
	SkipCorners bool
	// InjectAmplitudeFault deliberately perturbs one sparse amplitude by
	// faultEpsilon before the differential comparison of every eligible
	// case. A healthy oracle must then report divergences — this is the
	// self-test proving the gate can actually fail (used by unit tests
	// and the CLI's -inject-fault flag).
	InjectAmplitudeFault bool
}

func (c Config) withDefaults() Config {
	if c.Cases == 0 {
		c.Cases = 25
	}
	if c.MaxScale == 0 {
		c.MaxScale = 2
	}
	if c.MaxScale > 4 {
		c.MaxScale = 4
	}
	if c.SolveEvery == 0 {
		c.SolveEvery = 5
	}
	if c.SolveIters == 0 {
		c.SolveIters = 25
	}
	if c.Workers == 0 {
		c.Workers = 8
	}
	return c
}

// faultEpsilon is the amplitude perturbation injected by
// Config.InjectAmplitudeFault — far above AmpTol so detection is
// unambiguous, far below 1 so the corrupted state still looks plausible.
const faultEpsilon = 1e-6
