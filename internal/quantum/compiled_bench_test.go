package quantum

import (
	"math/rand"
	"testing"

	"rasengan/internal/bitvec"
)

// Map-vs-compiled micro-benchmarks over the same workload as
// benchSparseState: a 64-qubit register spread across 2^10 basis states.
// Run with: go test -bench=Transition64Q -benchmem ./internal/quantum/

// benchCompiledOps is the op set of benchSparseState plus the benchmark
// transition itself, so the compiled schedule can replay both.
func benchCompiledOps() [][]int64 {
	var ops [][]int64
	for q := 0; q < 10; q++ {
		u := make([]int64, 64)
		u[q*5] = 1
		ops = append(ops, u)
	}
	u := make([]int64, 64)
	u[1], u[33] = 1, -1
	ops = append(ops, u)
	return ops
}

func benchCompiledState(b *testing.B) (*CompiledSpace, *CompiledState) {
	cs, err := CompileSpace(bitvec.New(64), benchCompiledOps(), 0)
	if err != nil {
		b.Fatalf("compile failed: %v", err)
	}
	st := cs.NewState()
	st.ResetState(bitvec.New(64))
	for q := 0; q < 10; q++ {
		st.ApplyTransition(q, 0.7)
	}
	return cs, st
}

func BenchmarkCompiledTransition64Q1KStates(b *testing.B) {
	_, st := benchCompiledState(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.ApplyTransition(10, 0.5)
	}
}

func BenchmarkCompiledSample1K(b *testing.B) {
	_, st := benchCompiledState(b)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.SampleOutcomes(rng, 1024)
	}
}

// BenchmarkFusedTransitionCircuit16 measures the fusion win on a dense
// H·MCP·MCP·H transition core (the OperatorCircuit shape): fused execution
// collapses the two MCP sweeps into one phase-table pass.
func BenchmarkFusedTransitionCircuit16(b *testing.B) {
	c := NewCircuit(16)
	c.H(3)
	c.MCP([]int{3, 7, 11}, 0.8)
	c.MCP([]int{3, 7, 11}, -0.8)
	c.H(3)
	f := Fuse(c)
	d := NewDense(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.RunFused(f)
	}
}

func BenchmarkUnfusedTransitionCircuit16(b *testing.B) {
	c := NewCircuit(16)
	c.H(3)
	c.MCP([]int{3, 7, 11}, 0.8)
	c.MCP([]int{3, 7, 11}, -0.8)
	c.H(3)
	d := NewDense(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Run(c)
	}
}
