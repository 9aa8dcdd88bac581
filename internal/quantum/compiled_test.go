package quantum

import (
	"math"
	"math/rand"
	"testing"

	"rasengan/internal/bitvec"
	"rasengan/internal/parallel"
)

// randTransitionOps draws m random transition vectors over n variables,
// each entry in {-1,0,+1} with at least one nonzero, plus one all-zero
// vector to cover the degenerate no-op case.
func randTransitionOps(rng *rand.Rand, n, m int) [][]int64 {
	ops := make([][]int64, 0, m+1)
	for len(ops) < m {
		u := make([]int64, n)
		nz := false
		for i := range u {
			switch rng.Intn(4) {
			case 0:
				u[i] = 1
				nz = true
			case 1:
				u[i] = -1
				nz = true
			}
		}
		if nz {
			ops = append(ops, u)
		}
	}
	ops = append(ops, make([]int64, n)) // degenerate H^τ(0)
	return ops
}

// TestCompiledMatchesSparseBitwise is the engine's core contract: evolving
// the same schedule from the same seed, the compiled state's support and
// every amplitude equal the map engine's exactly (==, not within tolerance)
// after every operator application.
func TestCompiledMatchesSparseBitwise(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		n := 4 + rng.Intn(10)
		ops := randTransitionOps(rng, n, 2+rng.Intn(5))
		init := bitvec.New(n)
		for i := 0; i < n; i++ {
			init.Set(i, rng.Intn(2) == 1)
		}
		cs, ok := CompileSpace(init, ops, 0)
		if !ok {
			t.Fatalf("trial %d: compile failed on a %d-var schedule", trial, n)
		}
		sp := NewSparse(init)
		st := cs.NewState()
		if !st.ResetState(init) {
			t.Fatalf("trial %d: seed not in compiled space", trial)
		}
		// Several sweeps over the schedule with varying angles, checking
		// exact agreement after every single application.
		for sweep := 0; sweep < 3; sweep++ {
			for op, u := range ops {
				tt := 0.05 + rng.Float64()*3
				sp.ApplyTransition(u, tt)
				st.ApplyTransition(op, tt)
				if sp.Size() != st.Size() {
					t.Fatalf("trial %d sweep %d op %d: support %d (sparse) vs %d (compiled)",
						trial, sweep, op, sp.Size(), st.Size())
				}
				for _, x := range sp.Support() {
					if sp.Amplitude(x) != st.Amplitude(x) {
						t.Fatalf("trial %d sweep %d op %d: amp mismatch at %s: %v vs %v",
							trial, sweep, op, x, sp.Amplitude(x), st.Amplitude(x))
					}
				}
			}
		}
	}
}

// TestCompiledSampleMatchesSparse pins sampling equality: same state, same
// rng seed, identical count maps — and SampleOutcomes lists the same counts
// once per state in ascending order.
func TestCompiledSampleMatchesSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 10
	ops := randTransitionOps(rng, n, 4)
	init := bitvec.New(n)
	cs, ok := CompileSpace(init, ops, 0)
	if !ok {
		t.Fatal("compile failed")
	}
	sp := NewSparse(init)
	st := cs.NewState()
	st.ResetState(init)
	for op, u := range ops {
		tt := 0.3 + 0.2*float64(op)
		sp.ApplyTransition(u, tt)
		st.ApplyTransition(op, tt)
	}
	a := sp.Sample(rand.New(rand.NewSource(7)), 4096)
	b := st.Sample(rand.New(rand.NewSource(7)), 4096)
	if len(a) != len(b) {
		t.Fatalf("count maps differ in size: %d vs %d", len(a), len(b))
	}
	for x, c := range a {
		if b[x] != c {
			t.Fatalf("count mismatch at %s: %d vs %d", x, c, b[x])
		}
	}
	outs := st.SampleOutcomes(rand.New(rand.NewSource(7)), 4096)
	if len(outs) != len(a) {
		t.Fatalf("%d outcomes for %d sampled states", len(outs), len(a))
	}
	for k, o := range outs {
		if k > 0 && o.Index <= outs[k-1].Index {
			t.Fatalf("outcome %d (index %d) out of ascending order", k, o.Index)
		}
		if x := cs.StateAt(o.Index); o.Count != a[x] {
			t.Fatalf("SampleOutcomes count at %s: %d vs %d", x, o.Count, a[x])
		}
	}
}

// TestCompileSpaceRespectsCaps verifies the compile budget produces a clean
// fallback signal rather than an oversized artifact.
func TestCompileSpaceRespectsCaps(t *testing.T) {
	n := 12
	ops := make([][]int64, n)
	for i := range ops {
		u := make([]int64, n)
		u[i] = 1
		ops[i] = u
	}
	// Single-bit flips generate the full 2^12 hypercube.
	if _, ok := CompileSpace(bitvec.New(n), ops, 100); ok {
		t.Fatal("compile succeeded past a 100-state budget on a 4096-state closure")
	}
	cs, ok := CompileSpace(bitvec.New(n), ops, 1<<13)
	if !ok {
		t.Fatal("compile failed within budget")
	}
	if cs.Size() != 1<<n {
		t.Fatalf("closure size %d, want %d", cs.Size(), 1<<n)
	}
	if cs.NumDistinctOps() != n {
		t.Fatalf("distinct ops %d, want %d", cs.NumDistinctOps(), n)
	}
}

// TestCompiledShardedMatchesSerial drives the support above the sharding
// threshold and checks the sharded kernel is bit-identical to the serial one
// at any worker count — the determinism contract of internal/parallel.
// Under -race this is also the data-race check of the two-phase apply.
func TestCompiledShardedMatchesSerial(t *testing.T) {
	n := 14 // 16384-state hypercube: above compiledShardMin after full spread
	ops := make([][]int64, n)
	for i := range ops {
		u := make([]int64, n)
		u[i] = 1
		ops[i] = u
	}
	init := bitvec.New(n)
	cs, ok := CompileSpace(init, ops, 1<<15)
	if !ok {
		t.Fatal("compile failed")
	}
	run := func(workers int) *CompiledState {
		old := parallel.Workers()
		parallel.SetWorkers(workers)
		defer parallel.SetWorkers(old)
		st := cs.NewState()
		st.ResetState(init)
		for sweep := 0; sweep < 2; sweep++ {
			for op := range ops {
				st.ApplyTransition(op, 0.4+0.1*float64(op%5))
			}
		}
		return st
	}
	serial := run(1)
	for _, w := range []int{2, 8} {
		sharded := run(w)
		if serial.Size() != sharded.Size() {
			t.Fatalf("workers=%d: support %d vs serial %d", w, sharded.Size(), serial.Size())
		}
		si, pi := serial.SortedActive(), sharded.SortedActive()
		for k := range si {
			if si[k] != pi[k] {
				t.Fatalf("workers=%d: active set diverges at %d", w, k)
			}
			if serial.AmpAt(si[k]) != sharded.AmpAt(pi[k]) {
				t.Fatalf("workers=%d: amp diverges at index %d: %v vs %v",
					w, si[k], serial.AmpAt(si[k]), sharded.AmpAt(pi[k]))
			}
		}
	}
}

// TestCompiledApplyTransitionZeroAllocs is the steady-state allocation
// guard of the acceptance criteria: after one warm-up pass (which grows the
// active list and scratch to their high-water marks), a full reset-and-
// evolve cycle allocates nothing. Serial path only — the sharded kernel's
// worker handoff is excluded by pinning one worker.
func TestCompiledApplyTransitionZeroAllocs(t *testing.T) {
	old := parallel.Workers()
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(old)

	rng := rand.New(rand.NewSource(5))
	n := 12
	ops := randTransitionOps(rng, n, 6)
	init := bitvec.New(n)
	cs, ok := CompileSpace(init, ops, 0)
	if !ok {
		t.Fatal("compile failed")
	}
	st := cs.NewState()
	idx, _ := cs.IndexOf(init)
	cycle := func() {
		st.Reset(idx)
		for sweep := 0; sweep < 2; sweep++ {
			for op := range ops {
				st.ApplyTransition(op, 0.7)
			}
		}
	}
	cycle() // warm-up: scratch reaches its high-water mark
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("ApplyTransition cycle allocates %v times per run; want 0", allocs)
	}
}

// TestCompiledResetClearsState guards the epoch scheme: amplitudes from a
// previous evolution must not leak through a Reset.
func TestCompiledResetClearsState(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 8
	ops := randTransitionOps(rng, n, 4)
	init := bitvec.New(n)
	cs, ok := CompileSpace(init, ops, 0)
	if !ok {
		t.Fatal("compile failed")
	}
	st := cs.NewState()
	st.ResetState(init)
	for op := range ops {
		st.ApplyTransition(op, 1.1)
	}
	st.ResetState(init)
	if st.Size() != 1 {
		t.Fatalf("support %d after reset, want 1", st.Size())
	}
	if st.Amplitude(init) != 1 {
		t.Fatalf("seed amplitude %v after reset, want 1", st.Amplitude(init))
	}
	if nrm := st.Norm(); nrm != 1 {
		t.Fatalf("norm %v after reset, want 1", nrm)
	}
}

// assertSameState requires the compiled state to hold exactly the map
// state's support and amplitudes.
func assertSameState(t *testing.T, ctx string, sp *Sparse, st *CompiledState) {
	t.Helper()
	if sp.Size() != st.Size() {
		t.Fatalf("%s: support %d (sparse) vs %d (compiled)", ctx, sp.Size(), st.Size())
	}
	for x, a := range sp.amps {
		i, ok := st.Space().IndexOf(x)
		if !ok || st.AmpAt(i) != a {
			t.Fatalf("%s: amplitude of %v: sparse %v, compiled %v (in space %v)", ctx, x, a, st.Amplitude(x), ok)
		}
	}
}

// TestCompiledNoiseKernelsMatchSparse: the channel kernels reproduce the map
// engine's noise arithmetic exactly — Pauli X/Y/Z, the damping branches,
// the phase-damping projection, the decay jump, Prob1 and Normalize — with
// the basis-permuting branches moving the state into derived spaces.
func TestCompiledNoiseKernelsMatchSparse(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(2000 + trial)))
		n := 4 + rng.Intn(8)
		ops := randTransitionOps(rng, n, 2+rng.Intn(4))
		init := bitvec.New(n)
		for i := 0; i < n; i++ {
			init.Set(i, rng.Intn(2) == 1)
		}
		cs, ok := CompileSpace(init, ops, 0)
		if !ok {
			t.Fatalf("trial %d: compile failed", trial)
		}
		sp := NewSparse(init)
		st, alt := cs.NewState(), cs.NewState()
		st.ResetState(init)
		for step := 0; step < 60; step++ {
			op := rng.Intn(len(ops))
			angle := rng.Float64() * 2
			sp.ApplyTransition(ops[op], angle)
			st.ApplyTransition(op, angle)
			q := rng.Intn(n)
			if p1, want := st.Prob1(q), prob1Sparse(sp, q); p1 != want {
				t.Fatalf("trial %d step %d: Prob1 %v, sparse %v", trial, step, p1, want)
			}
			f := complex(math.Sqrt(1-rng.Float64()*0.4), 0)
			switch kind := rng.Intn(6); kind {
			case 0:
				sp.ApplyZ(q)
				st.NegateBit(q)
			case 1:
				for k, a := range sp.amps {
					if k.Bit(q) {
						sp.amps[k] = a * f
					}
				}
				st.ScaleBit(q, f)
			case 2:
				if st.Prob1(q) == 0 {
					continue // the projection would annihilate the state
				}
				for k := range sp.amps {
					if !k.Bit(q) {
						delete(sp.amps, k)
					}
				}
				st.ProjectBit(q)
			default:
				m := Move(kind - 3)
				if m == MoveDecay && st.Prob1(q) == 0 {
					continue
				}
				dst, ok := st.Space().Derive(st.Space().MoveImages(q, m), 0)
				if !ok {
					t.Fatalf("trial %d step %d: derive failed", trial, step)
				}
				idx, ok := st.Space().MoveIndex(q, m, dst)
				if !ok {
					t.Fatalf("trial %d step %d: derived space misses an image", trial, step)
				}
				alt.LoadMoved(st, q, m, idx, dst)
				st, alt = alt, st
				switch m {
				case MoveX:
					sp.ApplyX(q)
				case MoveY:
					sp.ApplyY(q)
				default:
					sp.ApplyDecay(q)
				}
			}
			sp.Normalize()
			st.Normalize()
			assertSameState(t, "kernels", sp, st)
		}
		assertSameState(t, "ToSparse", st.ToSparse(), st)
	}
}

// TestDeriveMultiSeedClosure: the closure of several seeds is the union of
// their single-seed closures, and Derive shares the schedule's operator
// rows, so a derived space runs the same transitions.
func TestDeriveMultiSeedClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	n := 9
	ops := randTransitionOps(rng, n, 3)
	a, b := bitvec.New(n), bitvec.New(n)
	for i := 0; i < n; i++ {
		a.Set(i, rng.Intn(2) == 1)
		b.Set(i, rng.Intn(2) == 1)
	}
	ca, _ := CompileSpace(a, ops, 0)
	cb, _ := CompileSpace(b, ops, 0)
	both, ok := ca.Derive([]bitvec.Vec{a, b, a}, 0)
	if !ok {
		t.Fatal("derive failed")
	}
	union := map[bitvec.Vec]bool{}
	for _, cs := range []*CompiledSpace{ca, cb} {
		for i := 0; i < cs.Size(); i++ {
			union[cs.StateAt(int32(i))] = true
		}
	}
	if both.Size() != len(union) {
		t.Fatalf("closure of two seeds holds %d states, union of closures %d", both.Size(), len(union))
	}
	for x := range union {
		if _, ok := both.IndexOf(x); !ok {
			t.Fatalf("state %v missing from the two-seed closure", x)
		}
	}
	if both.NumOps() != len(ops) || both.NumDistinctOps() != ca.NumDistinctOps() {
		t.Fatal("derived space does not share the schedule")
	}
	if _, ok := ca.Derive([]bitvec.Vec{a, b}, 1); ok {
		t.Fatal("derive ignored maxStates")
	}
}
