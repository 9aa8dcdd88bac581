package core

import (
	"context"
	"sync"
	"testing"

	"rasengan/internal/device"
	"rasengan/internal/parallel"
	"rasengan/internal/problems"
)

// limiterConfigs are the execution settings the lease tests solve FLP(1,0)
// under: the ideal sampled path, and the noisy Kyiv configuration of
// TestSolveDeterministicAcrossWorkers, whose trajectories also see the
// lease renegotiated mid-solve.
var limiterConfigs = []struct {
	name string
	exec ExecOptions
}{
	{"ideal", ExecOptions{Shots: 256, OpsPerSegment: 1}},
	{"kyiv", ExecOptions{Shots: 256, OpsPerSegment: 1, Device: device.Kyiv(), Trajectories: 4}},
}

// solveWithLimiter runs one reference solve under the given execution
// settings and worker limiter.
func solveWithLimiter(t *testing.T, exec ExecOptions, lim parallel.Limiter) *Result {
	t.Helper()
	p := problems.FLP(1, 0)
	res, err := Solve(context.Background(), p, Options{
		MaxIter: 40,
		Seed:    17,
		Exec:    exec,
		Workers: lim,
	})
	if err != nil {
		t.Fatalf("limiter=%v: %v", lim, err)
	}
	return res
}

func assertResultsIdentical(t *testing.T, label string, got, ref *Result) {
	t.Helper()
	if got.Expectation != ref.Expectation {
		t.Errorf("%s: expectation %v != %v", label, got.Expectation, ref.Expectation)
	}
	if got.BestValue != ref.BestValue || got.BestSolution != ref.BestSolution {
		t.Errorf("%s: best (%v, %v) != (%v, %v)", label,
			got.BestSolution, got.BestValue, ref.BestSolution, ref.BestValue)
	}
	if len(got.Times) != len(ref.Times) {
		t.Fatalf("%s: %d times != %d", label, len(got.Times), len(ref.Times))
	}
	for i := range ref.Times {
		if got.Times[i] != ref.Times[i] {
			t.Errorf("%s: time[%d] %v != %v", label, i, got.Times[i], ref.Times[i])
		}
	}
	if len(got.Distribution) != len(ref.Distribution) {
		t.Fatalf("%s: distribution support %d != %d", label, len(got.Distribution), len(ref.Distribution))
	}
	for x, pr := range ref.Distribution {
		if got.Distribution[x] != pr {
			t.Errorf("%s: P(%v) = %v != %v", label, x, got.Distribution[x], pr)
		}
	}
	if got.Evals != ref.Evals {
		t.Errorf("%s: evals %d != %d", label, got.Evals, ref.Evals)
	}
}

// TestSolveDeterministicUnderWorkerLimiter pins the lease-renegotiation
// determinism argument: a solve's outcome is the same with no limiter,
// a serial limiter, and a wide limiter, because every parallel primitive
// the solve touches is bit-identical at any width.
func TestSolveDeterministicUnderWorkerLimiter(t *testing.T) {
	for _, cfg := range limiterConfigs {
		ref := solveWithLimiter(t, cfg.exec, nil)
		for _, tc := range []struct {
			label string
			lim   parallel.Limiter
		}{
			{"Fixed(1)", parallel.Fixed(1)},
			{"Fixed(8)", parallel.Fixed(8)},
		} {
			assertResultsIdentical(t, cfg.name+"/"+tc.label, solveWithLimiter(t, cfg.exec, tc.lim), ref)
		}
	}
}

// flappingLimiter alternates between 1 and 6 workers on every read,
// simulating the harshest possible lease renegotiation schedule.
type flappingLimiter struct {
	mu    sync.Mutex
	reads int
}

func (f *flappingLimiter) Workers() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.reads++
	if f.reads%2 == 0 {
		return 1
	}
	return 6
}

// TestSolveDeterministicUnderFlappingLease resizes the lease at every
// read — every iteration boundary picks up a different width — and the
// result still matches the unlimited run bit for bit.
func TestSolveDeterministicUnderFlappingLease(t *testing.T) {
	for _, cfg := range limiterConfigs {
		ref := solveWithLimiter(t, cfg.exec, nil)
		lim := &flappingLimiter{}
		assertResultsIdentical(t, cfg.name+"/flapping", solveWithLimiter(t, cfg.exec, lim), ref)
		lim.mu.Lock()
		reads := lim.reads
		lim.mu.Unlock()
		if reads == 0 {
			t.Fatalf("%s: limiter was never consulted: lease plumbing is disconnected", cfg.name)
		}
	}
}

// TestScheduleParamCountMatchesSolve checks the validation surface the
// serving layer uses for warm-start dimension checks: ScheduleParamCount
// must equal the NumParams the full solve reports.
func TestScheduleParamCountMatchesSolve(t *testing.T) {
	p := problems.FLP(1, 0)
	opts := Options{MaxIter: 20, Seed: 3}
	n, err := ScheduleParamCount(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if n != res.NumParams {
		t.Errorf("ScheduleParamCount = %d, solve reported NumParams = %d", n, res.NumParams)
	}
	if n != len(res.Times) {
		t.Errorf("ScheduleParamCount = %d, len(Times) = %d", n, len(res.Times))
	}
}
