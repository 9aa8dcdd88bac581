package core

import (
	"context"
	"math/rand"
	"testing"

	"rasengan/internal/device"
	"rasengan/internal/problems"
)

// Micro-benchmarks for the pipeline stages. Run with:
// go test -bench=. -benchmem ./internal/core/

func BenchmarkBuildBasisFLP(b *testing.B) {
	p := problems.FLP(3, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildBasis(p, BasisOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildBasisGCPSearch(b *testing.B) {
	// The ternary-search path (non-ternary rational basis).
	p := problems.GCP(3, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildBasis(p, BasisOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildBasisSCP3 builds the ten S3 bases that dominate basis
// time in the scale-1–3 pool: each takes the ternary-search support
// ladder, where every level measures a closure of its candidate pool.
func BenchmarkBuildBasisSCP3(b *testing.B) {
	var ps []*problems.Problem
	for _, c := range []int{8, 11, 14, 21, 22, 23, 46, 47, 55, 61} {
		ps = append(ps, problems.SCP(3, c))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range ps {
			if _, err := BuildBasis(p, BasisOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkBuildSchedule(b *testing.B) {
	p := problems.SCP(3, 0)
	basis, err := BuildBasis(p, BasisOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildSchedule(p, basis, ScheduleOptions{})
	}
}

func BenchmarkExecutorExactRun(b *testing.B) {
	p := problems.FLP(2, 0)
	basis, err := BuildBasis(p, BasisOptions{})
	if err != nil {
		b.Fatal(err)
	}
	sched := BuildSchedule(p, basis, ScheduleOptions{})
	exec, err := NewExecutor(p, sched.Ops, ExecOptions{})
	if err != nil {
		b.Fatal(err)
	}
	times := make([]float64, exec.NumParams())
	for i := range times {
		times[i] = 0.6
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.Run(times, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveF1(b *testing.B) {
	p := problems.FLP(1, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(context.Background(), p, Options{MaxIter: 60, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOperatorCircuitEmission(b *testing.B) {
	u := make([]int64, 24)
	u[1], u[7], u[13], u[19] = 1, -1, 1, -1
	tr := Transition{U: u}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.OperatorCircuit(24, 0.5)
	}
}

// benchOptimizerIter measures one optimizer objective evaluation — a full
// RunEnergy over the instance's schedule at fixed times — under the given
// engine. This is the loop body the compiled engine exists to accelerate;
// BENCH_PR6.json records map-vs-compiled ratios on the medium cells below.
func benchOptimizerIter(b *testing.B, p *problems.Problem, engine string) {
	benchRunEnergy(b, p, engine, ExecOptions{}, false)
}

// benchNoisyIter is benchOptimizerIter on the Quebec noise model at 512
// shots: trajectories, noise channels, sampling and readout error. A
// warm-up evaluation fills the compiled engine's excursion memo first.
func benchNoisyIter(b *testing.B, p *problems.Problem, engine string) {
	benchRunEnergy(b, p, engine, ExecOptions{Device: device.Quebec(), Shots: 512}, true)
}

// benchRunEnergy times RunEnergyCtx on one executor of p under engine,
// after one untimed evaluation when warm is set.
func benchRunEnergy(b *testing.B, p *problems.Problem, engine string, opts ExecOptions, warm bool) {
	basis, err := BuildBasis(p, BasisOptions{})
	if err != nil {
		b.Fatal(err)
	}
	sched := BuildSchedule(p, basis, ScheduleOptions{})
	opts.ForceMapEngine = engine == EngineMap
	exec, err := NewExecutor(p, sched.Ops, opts)
	if err != nil {
		b.Fatal(err)
	}
	if (exec.plan == nil) != opts.ForceMapEngine {
		b.Fatalf("engine %q: compiled plan present = %v", engine, exec.plan != nil)
	}
	times := make([]float64, exec.NumParams())
	for i := range times {
		times[i] = 0.55 + 0.07*float64(i%4)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	if warm {
		if _, err := exec.RunEnergyCtx(ctx, times, rng); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.RunEnergyCtx(ctx, times, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimizerIterMapFLP3(b *testing.B) {
	benchOptimizerIter(b, problems.FLP(3, 0), EngineMap)
}

func BenchmarkOptimizerIterCompiledFLP3(b *testing.B) {
	benchOptimizerIter(b, problems.FLP(3, 0), EngineCompiled)
}

func BenchmarkOptimizerIterMapSCP4(b *testing.B) {
	benchOptimizerIter(b, problems.SCP(4, 0), EngineMap)
}

func BenchmarkOptimizerIterCompiledSCP4(b *testing.B) {
	benchOptimizerIter(b, problems.SCP(4, 0), EngineCompiled)
}

func BenchmarkOptimizerIterMapKPP3(b *testing.B) {
	benchOptimizerIter(b, problems.KPP(3, 0), EngineMap)
}

func BenchmarkOptimizerIterCompiledKPP3(b *testing.B) {
	benchOptimizerIter(b, problems.KPP(3, 0), EngineCompiled)
}

func BenchmarkNoisyIterMapFLP3(b *testing.B) {
	benchNoisyIter(b, problems.FLP(3, 0), EngineMap)
}

func BenchmarkNoisyIterCompiledFLP3(b *testing.B) {
	benchNoisyIter(b, problems.FLP(3, 0), EngineCompiled)
}

func BenchmarkNoisyIterMapKPP3(b *testing.B) {
	benchNoisyIter(b, problems.KPP(3, 0), EngineMap)
}

func BenchmarkNoisyIterCompiledKPP3(b *testing.B) {
	benchNoisyIter(b, problems.KPP(3, 0), EngineCompiled)
}

func BenchmarkNoisyIterMapSCP3(b *testing.B) {
	benchNoisyIter(b, problems.SCP(3, 0), EngineMap)
}

func BenchmarkNoisyIterCompiledSCP3(b *testing.B) {
	benchNoisyIter(b, problems.SCP(3, 0), EngineCompiled)
}
