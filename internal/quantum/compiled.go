package quantum

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"

	"rasengan/internal/bitvec"
	"rasengan/internal/parallel"
)

// This file is the compiled feasible-subspace engine. The map-based Sparse
// state pays hashing, bitvec.Vec key copies, and a support snapshot on every
// ApplyTransition of every optimizer iteration, even though the pairing
// structure of a transition schedule is fixed once the schedule is: only the
// evolution angles change between iterations. CompileSpace walks that fixed
// structure once — it enumerates the closure of the seed solution under every
// scheduled transition vector, assigns each reachable basis state a dense
// int32 index, and precomputes, per distinct vector, the index of every
// state's transition partner. A CompiledState is then a flat []complex128
// over that closure: each ApplyTransition is 2×2 rotations over array slots
// with no maps, no hashing, and no steady-state allocations.
//
// The engine is exact on its domain: the closure is closed under every
// scheduled move, so a state seeded inside it never leaves (the paper's
// feasible-span invariant), and the pair arithmetic below is the same
// operations in the same order as Sparse.ApplyTransition — including the
// sparseEps prune — so amplitudes, supports, and sampling CDFs are
// bit-identical to the map engine. Noise channels are kernels on the same
// arrays: the diagonal branches (Z, the no-jump damping branches, the
// phase-damping projection) scale or drop active slots in place, and the
// basis-permuting branches (X, Y, the amplitude-damping jump) move a state
// into another closure of the same schedule through a precomputed index map
// (Derive, MoveIndex, LoadMoved).

// DefaultCompiledMaxStates caps the enumerated closure when the caller does
// not supply a bound: 2^17 states keeps the flat amplitude array (2 MiB) and
// the per-operator partner tables comfortably in memory.
const DefaultCompiledMaxStates = 1 << 17

// compiledPairBudget caps len(states)·(distinct operators): the partner
// tables are the dominant memory cost (4 bytes per state per distinct
// vector), and a schedule with many distinct vectors over a large closure is
// better served by the map engine than by a hundred-MiB compile artifact.
const compiledPairBudget = 1 << 23

// Sharding thresholds of the compiled transition kernel. Supports below
// compiledShardMin stay serial — goroutine handoff costs more than the
// rotation loop itself — and chunk boundaries depend only on the snapshot
// length, never the worker count, so activation order (and therefore every
// float) is bit-identical at any parallelism.
const (
	compiledShardMin = 1 << 12
	compiledChunk    = 1 << 11
)

// CompiledSpace is the immutable compile artifact: the reachable closure of
// a set of seed states under a transition schedule, with per-operator
// partner schedules. It is built once per Executor and shared read-only by
// every clone's CompiledState.
type CompiledSpace struct {
	n      int
	states []bitvec.Vec         // sorted by bitvec.Compare; index == rank
	index  map[bitvec.Vec]int32 // inverse of states
	opRow  []int32              // schedule op -> row in partners (-1: all-zero op)
	// distinct holds the schedule's distinct transition vectors and negated
	// their negations; spaces derived from this one share both.
	distinct, negated [][]int64
	// partners[r][i] encodes state i's role under distinct vector r:
	// 0 — fixed point (no valid partner in either direction);
	// +(j+1) — i is the lower pair member, partner j = i+u;
	// -(j+1) — i is the upper pair member, partner j = i-u.
	partners [][]int32
	pairs    int // total lower-member entries across partner rows

	// cols[q] is a bitset over state indices: bit i is set when state i has
	// qubit q set. Built on first use by a noise channel, so noise-free
	// compiles do not pay for it.
	colsOnce sync.Once
	cols     [][]uint64
}

// CompileSpace enumerates the closure of init under the transition vectors
// ops (entries in {-1,0,+1}, one vector per scheduled operator) and compiles
// the per-operator partner schedules. It returns ok=false when the closure
// exceeds maxStates (<=0 means DefaultCompiledMaxStates) or the partner
// tables would exceed the memory budget — the caller falls back to the map
// engine in that case.
func CompileSpace(init bitvec.Vec, ops [][]int64, maxStates int) (*CompiledSpace, bool) {
	n := init.Len()
	for _, u := range ops {
		if len(u) != n {
			panic(fmt.Sprintf("quantum: compile with %d-entry transition vector on %d qubits", len(u), n))
		}
	}

	// Dedupe operators by content: schedules cycle a small pool of distinct
	// vectors, so partner tables are per distinct vector, not per op.
	opRow := make([]int32, len(ops))
	var distinct [][]int64
	rowByKey := make(map[string]int32)
	key := make([]byte, n)
	for i, u := range ops {
		allZero := true
		for j, v := range u {
			key[j] = byte(v + 1)
			if v != 0 {
				allZero = false
			}
		}
		if allZero {
			// H^τ(0) is treated as a no-op by ApplyTransition; compile it
			// away entirely.
			opRow[i] = -1
			continue
		}
		k := string(key)
		r, seen := rowByKey[k]
		if !seen {
			r = int32(len(distinct))
			rowByKey[k] = r
			distinct = append(distinct, u)
		}
		opRow[i] = r
	}
	negated := make([][]int64, len(distinct))
	for r, u := range distinct {
		negated[r] = make([]int64, n)
		for j, v := range u {
			negated[r][j] = -v
		}
	}
	tmpl := &CompiledSpace{n: n, opRow: opRow, distinct: distinct, negated: negated}
	return tmpl.Derive([]bitvec.Vec{init}, maxStates)
}

// Derive compiles the closure of seeds under the schedule this space was
// compiled for — the compiled home of states a noise channel moves outside
// the space. The result shares the schedule's operator rows; ok=false under
// the same limits as CompileSpace.
func (cs *CompiledSpace) Derive(seeds []bitvec.Vec, maxStates int) (*CompiledSpace, bool) {
	if maxStates <= 0 {
		maxStates = DefaultCompiledMaxStates
	}
	// Closure enumeration: breadth-first from the seeds under ±u for every
	// distinct vector, to fixpoint. Any state a run can ever occupy is in
	// this set — each ApplyTransition moves amplitude only along ±u edges —
	// so the flat arrays below cover every reachable support.
	reach := make(map[bitvec.Vec]struct{}, len(seeds))
	var frontier []bitvec.Vec
	for _, x := range seeds {
		if x.Len() != cs.n {
			panic(fmt.Sprintf("quantum: %d-bit seed for a %d-qubit space", x.Len(), cs.n))
		}
		if _, seen := reach[x]; !seen {
			reach[x] = struct{}{}
			frontier = append(frontier, x)
		}
	}
	if len(reach) > maxStates {
		return nil, false
	}
	for len(frontier) > 0 {
		var next []bitvec.Vec
		for _, x := range frontier {
			for r, u := range cs.distinct {
				if y, ok := x.AddSigned(u); ok {
					if _, seen := reach[y]; !seen {
						reach[y] = struct{}{}
						next = append(next, y)
					}
				}
				if y, ok := x.AddSigned(cs.negated[r]); ok {
					if _, seen := reach[y]; !seen {
						reach[y] = struct{}{}
						next = append(next, y)
					}
				}
			}
			if len(reach) > maxStates {
				return nil, false
			}
		}
		frontier = next
	}
	if len(cs.distinct) > 0 && len(reach)*len(cs.distinct) > compiledPairBudget {
		return nil, false
	}

	out := &CompiledSpace{
		n:        cs.n,
		states:   make([]bitvec.Vec, 0, len(reach)),
		index:    make(map[bitvec.Vec]int32, len(reach)),
		opRow:    cs.opRow,
		distinct: cs.distinct,
		negated:  cs.negated,
	}
	for x := range reach {
		out.states = append(out.states, x)
	}
	// Sorted by Compare: ascending index order is ascending basis-state
	// order, so index-ordered reductions match the map engine's
	// sorted-key-order float accumulation bit for bit.
	slices.SortFunc(out.states, bitvec.Vec.Compare)
	for i, x := range out.states {
		out.index[x] = int32(i)
	}

	out.partners = make([][]int32, len(cs.distinct))
	for r, u := range cs.distinct {
		row := make([]int32, len(out.states))
		for i, x := range out.states {
			if y, ok := x.AddSigned(u); ok {
				j, in := out.index[y]
				if !in {
					return nil, false // closure violated; unreachable by construction
				}
				row[i] = j + 1
				out.pairs++
			} else if y, ok := x.AddSigned(cs.negated[r]); ok {
				j, in := out.index[y]
				if !in {
					return nil, false
				}
				row[i] = -(j + 1)
			}
		}
		out.partners[r] = row
	}
	return out, true
}

// NumQubits returns the register width.
func (cs *CompiledSpace) NumQubits() int { return cs.n }

// Size returns the number of basis states in the compiled closure.
func (cs *CompiledSpace) Size() int { return len(cs.states) }

// NumOps returns the number of scheduled operators the space was compiled
// for.
func (cs *CompiledSpace) NumOps() int { return len(cs.opRow) }

// NumDistinctOps returns how many distinct transition vectors the schedule
// contains (the number of partner tables held in memory).
func (cs *CompiledSpace) NumDistinctOps() int { return len(cs.partners) }

// NumPairs returns the total number of transition pairs across all distinct
// operators — the rotation work of one full-schedule sweep at full support.
func (cs *CompiledSpace) NumPairs() int { return cs.pairs }

// StateAt returns the basis state with dense index i.
func (cs *CompiledSpace) StateAt(i int32) bitvec.Vec { return cs.states[i] }

// IndexOf returns the dense index of x, if x is in the closure.
func (cs *CompiledSpace) IndexOf(x bitvec.Vec) (int32, bool) {
	i, ok := cs.index[x]
	return i, ok
}

// column returns the bitset of states with qubit q set.
func (cs *CompiledSpace) column(q int) []uint64 {
	cs.colsOnce.Do(func() {
		words := (len(cs.states) + 63) / 64
		flat := make([]uint64, cs.n*words)
		cs.cols = make([][]uint64, cs.n)
		for b := range cs.cols {
			cs.cols[b] = flat[b*words : (b+1)*words]
		}
		for i, x := range cs.states {
			for b := 0; b < cs.n; b++ {
				if x.Bit(b) {
					cs.cols[b][i>>6] |= 1 << (uint(i) & 63)
				}
			}
		}
	})
	return cs.cols[q]
}

func hasBit(col []uint64, i int32) bool { return col[i>>6]>>(uint(i)&63)&1 != 0 }

// Move is a basis-permuting noise branch on one qubit.
type Move uint8

const (
	// MoveX is a Pauli X error: the qubit flips.
	MoveX Move = iota
	// MoveY is a Pauli Y error: the qubit flips, |0⟩→i|1⟩ and |1⟩→−i|0⟩.
	MoveY
	// MoveDecay is the amplitude-damping jump |1⟩→|0⟩: states with the
	// qubit clear are annihilated, the others clear it.
	MoveDecay
)

// image returns x moved by m on qubit q; ok=false when m annihilates x.
func (m Move) image(x bitvec.Vec, q int) (bitvec.Vec, bool) {
	if m == MoveDecay {
		if !x.Bit(q) {
			return x, false
		}
		x.Set(q, false)
		return x, true
	}
	x.Flip(q)
	return x, true
}

// MoveImages returns the images of the space's states under m on qubit q,
// in index order, skipping annihilated states — the seeds of the space m
// moves a state of this one into.
func (cs *CompiledSpace) MoveImages(q int, m Move) []bitvec.Vec {
	out := make([]bitvec.Vec, 0, len(cs.states))
	for _, x := range cs.states {
		if y, ok := m.image(x, q); ok {
			out = append(out, y)
		}
	}
	return out
}

// MoveIndex maps every state index of cs to the index in dst of its image
// under m on qubit q, or -1 where m annihilates the state. It reports
// ok=false when an image lies outside dst. X and Y share one map.
func (cs *CompiledSpace) MoveIndex(q int, m Move, dst *CompiledSpace) ([]int32, bool) {
	idx := make([]int32, len(cs.states))
	for i, x := range cs.states {
		y, ok := m.image(x, q)
		if !ok {
			idx[i] = -1
			continue
		}
		j, in := dst.index[y]
		if !in {
			return nil, false
		}
		idx[i] = j
	}
	return idx, true
}

// NewState returns a zero (null) state over the compiled closure. Call
// Reset/ResetState before use.
func (cs *CompiledSpace) NewState() *CompiledState {
	return &CompiledState{
		space: cs,
		amps:  make([]complex128, len(cs.states)),
		stamp: make([]uint64, len(cs.states)),
		epoch: 1,
	}
}

// CompiledState is a statevector over a CompiledSpace: a flat amplitude
// array plus an active-index list tracking the (typically small) support.
// ApplyTransition touches only active slots, so per-op cost is O(support),
// matching the map engine's asymptotics without its constant factors.
//
// The epoch/stamp scheme makes "is index i active" an array compare:
// stamp[i] == epoch. Reset bumps the epoch instead of clearing stamps, so a
// reset is O(previous support), and a pruned slot un-stamps with stamp 0
// (epochs start at 1 and only grow, so 0 never matches).
type CompiledState struct {
	space  *CompiledSpace
	amps   []complex128
	stamp  []uint64
	epoch  uint64
	active []int32
	// sorted records that active is in ascending order, so the sorted
	// reductions of a noise channel sort at most once per transition.
	sorted bool

	// Reused scratch: per-chunk activation buffers of the sharded kernel
	// (appended in chunk order, so activation order is worker-count
	// independent) and the CDF/draw/outcome buffers of sampling.
	chunkActs [][]int32
	cdf       []float64
	draws     []float64
	outcomes  []Outcome

	// workers caps the sharded kernel's fan-out for this state; 0 means
	// the package default width. Set through SetWorkerLimit by callers
	// holding a compute-budget lease; any value yields bit-identical
	// amplitudes (chunk boundaries ignore the worker count).
	workers int
}

// SetWorkerLimit caps this state's transition-kernel parallelism; n <= 0
// restores the package default. Safe to change between ApplyTransition
// calls — the limit is a pure performance knob.
func (s *CompiledState) SetWorkerLimit(n int) {
	if n < 0 {
		n = 0
	}
	s.workers = n
}

// workerLimit resolves the state's effective fan-out width.
func (s *CompiledState) workerLimit() int {
	if s.workers > 0 {
		return s.workers
	}
	return parallel.Workers()
}

// Space returns the compiled closure the state lives on.
func (s *CompiledState) Space() *CompiledSpace { return s.space }

// NumQubits returns the register width.
func (s *CompiledState) NumQubits() int { return s.space.n }

// Size returns the number of active (stored) basis states, matching
// Sparse.Size — entries below the prune threshold are dropped after every
// transition, so this equals the map engine's stored-key count.
func (s *CompiledState) Size() int { return len(s.active) }

// clear empties the state in O(support).
func (s *CompiledState) clear() {
	for _, k := range s.active {
		s.amps[k] = 0
	}
	s.active = s.active[:0]
	s.epoch++
	s.sorted = true
}

// Rebind empties the state and moves it onto cs, a space of the same
// schedule (see Derive). The buffers grow only when cs is larger than every
// space the state has held, so rebinding among a fixed set of spaces does
// not allocate.
func (s *CompiledState) Rebind(cs *CompiledSpace) {
	s.clear()
	if len(s.amps) < len(cs.states) {
		s.amps = make([]complex128, len(cs.states))
		s.stamp = make([]uint64, len(cs.states))
	}
	s.space = cs
}

// Reset re-seeds the state to the basis state with dense index i. Previous
// amplitudes are cleared in O(previous support).
func (s *CompiledState) Reset(i int32) {
	s.clear()
	s.amps[i] = 1
	s.stamp[i] = s.epoch
	s.active = append(s.active, i)
}

// ResetState is Reset by basis state; it reports whether x is inside the
// compiled closure.
func (s *CompiledState) ResetState(x bitvec.Vec) bool {
	i, ok := s.space.index[x]
	if !ok {
		return false
	}
	s.Reset(i)
	return true
}

// Amplitude returns ⟨x|ψ⟩ (zero for states outside the closure).
func (s *CompiledState) Amplitude(x bitvec.Vec) complex128 {
	i, ok := s.space.index[x]
	if !ok {
		return 0
	}
	return s.amps[i]
}

// AmpAt returns the amplitude at dense index i.
func (s *CompiledState) AmpAt(i int32) complex128 { return s.amps[i] }

// ApplyTransition applies exp(-i·H^τ(u)·t) for scheduled operator op — the
// same Equation 6 pairing as Sparse.ApplyTransition, over precompiled
// partner indices instead of map probes. Only the snapshot prefix of the
// active list is processed; states activated mid-pass (partners entering the
// support) are appended behind it, exactly mirroring the map engine's
// support-snapshot semantics. Pairs under a fixed u are disjoint, so each
// pair is rotated exactly once: from its lower member when that member is in
// the snapshot, from the upper member otherwise.
func (s *CompiledState) ApplyTransition(op int, t float64) {
	r := s.space.opRow[op]
	if r < 0 {
		return // all-zero vector: no-op, as in Sparse
	}
	row := s.space.partners[r]
	ct := complex(math.Cos(t), 0)
	st := complex(0, math.Sin(t))
	snapshot := len(s.active)
	if snapshot >= compiledShardMin && s.workerLimit() > 1 {
		s.applySharded(row, ct, st, snapshot)
	} else {
		s.applySerial(row, ct, st, snapshot)
	}
	if len(s.active) > snapshot {
		s.sorted = false
	}
	s.prune()
}

func (s *CompiledState) applySerial(row []int32, ct, st complex128, snapshot int) {
	amps, stamp := s.amps, s.stamp
	for k := 0; k < snapshot; k++ {
		i := s.active[k]
		pr := row[i]
		if pr == 0 {
			continue // fixed point
		}
		if pr > 0 {
			// i is the lower member; the partner's slot reads 0 when it is
			// outside the support, matching the map engine's missing-key read.
			j := pr - 1
			a, b := amps[i], amps[j]
			amps[i] = ct*a - st*b
			amps[j] = ct*b - st*a
			if stamp[j] != s.epoch {
				stamp[j] = s.epoch
				s.active = append(s.active, j)
			}
		} else {
			// i is the upper member; the pair is handled from the lower side
			// when that side is in the snapshot.
			j := -pr - 1
			if stamp[j] == s.epoch {
				continue
			}
			b := amps[i]
			amps[j] = -st * b
			amps[i] = ct * b
			stamp[j] = s.epoch
			s.active = append(s.active, j)
		}
	}
}

// applySharded is the same pass over fixed-size snapshot chunks. It is
// race-free because pairs under one u are disjoint: every amps/stamp slot
// written during the pass belongs to exactly one pair, and that pair is
// processed by exactly one chunk (the upper-member branch reads only the
// partner's stamp — set before the pass when the partner is in the snapshot —
// before touching any amplitude). Newly activated indices collect in
// per-chunk buffers appended in chunk order, so the resulting active order —
// and every float in every later pass — is independent of the worker count.
func (s *CompiledState) applySharded(row []int32, ct, st complex128, snapshot int) {
	nChunks := (snapshot + compiledChunk - 1) / compiledChunk
	for len(s.chunkActs) < nChunks {
		s.chunkActs = append(s.chunkActs, make([]int32, 0, compiledChunk))
	}
	amps, stamp, epoch := s.amps, s.stamp, s.epoch
	snap := s.active[:snapshot]
	parallel.ForChunksWorkers(s.workerLimit(), snapshot, compiledChunk, func(lo, hi int) {
		buf := s.chunkActs[lo/compiledChunk][:0]
		for k := lo; k < hi; k++ {
			i := snap[k]
			pr := row[i]
			if pr == 0 {
				continue
			}
			if pr > 0 {
				j := pr - 1
				a, b := amps[i], amps[j]
				amps[i] = ct*a - st*b
				amps[j] = ct*b - st*a
				if stamp[j] != epoch {
					stamp[j] = epoch
					buf = append(buf, j)
				}
			} else {
				j := -pr - 1
				if stamp[j] == epoch {
					continue
				}
				b := amps[i]
				amps[j] = -st * b
				amps[i] = ct * b
				stamp[j] = epoch
				buf = append(buf, j)
			}
		}
		s.chunkActs[lo/compiledChunk] = buf
	})
	for ci := 0; ci < nChunks; ci++ {
		s.active = append(s.active, s.chunkActs[ci]...)
	}
}

// prune drops active entries below the same sparseEps threshold as the map
// engine, zeroing and un-stamping their slots so a later activation starts
// from a clean 0 — this keeps the stored support exactly equal to Sparse's
// key set after every operator.
func (s *CompiledState) prune() {
	amps, stamp := s.amps, s.stamp
	w := 0
	for _, i := range s.active {
		a := amps[i]
		if real(a)*real(a)+imag(a)*imag(a) < sparseEps*sparseEps {
			amps[i] = 0
			stamp[i] = 0
			continue
		}
		s.active[w] = i
		w++
	}
	s.active = s.active[:w]
}

// SortedActive sorts the active list ascending in place and returns it.
// Ascending dense index is ascending bitvec.Compare order by construction,
// so iteration over SortedActive visits the support in exactly the order the
// map engine's Support()/sortedDistKeys produce. The returned slice aliases
// internal state: it is valid until the next mutating call.
func (s *CompiledState) SortedActive() []int32 {
	if !s.sorted {
		slices.Sort(s.active)
		s.sorted = true
	}
	return s.active
}

// Support returns the active basis states in deterministic (ascending)
// order, matching Sparse.Support.
func (s *CompiledState) Support() []bitvec.Vec {
	idx := s.SortedActive()
	out := make([]bitvec.Vec, len(idx))
	for k, i := range idx {
		out[k] = s.space.states[i]
	}
	return out
}

// Norm returns ⟨ψ|ψ⟩, accumulated in sorted support order for cross-run
// determinism.
func (s *CompiledState) Norm() float64 {
	t := 0.0
	for _, i := range s.SortedActive() {
		a := s.amps[i]
		t += real(a)*real(a) + imag(a)*imag(a)
	}
	return t
}

// Normalize rescales to unit norm, reporting whether the state was
// non-null — Sparse.Normalize over the flat arrays.
func (s *CompiledState) Normalize() bool {
	nrm := math.Sqrt(s.Norm())
	if nrm == 0 {
		return false
	}
	inv := complex(1/nrm, 0)
	for _, i := range s.active {
		s.amps[i] *= inv
	}
	return true
}

// Prob1 returns the (unnormalized) probability that qubit q reads 1,
// accumulated in sorted support order like the map engine's damping
// channels.
func (s *CompiledState) Prob1(q int) float64 {
	col := s.space.column(q)
	p := 0.0
	for _, i := range s.SortedActive() {
		if hasBit(col, i) {
			a := s.amps[i]
			p += real(a)*real(a) + imag(a)*imag(a)
		}
	}
	return p
}

// ScaleBit multiplies the amplitude of every support state with qubit q set
// by f: the no-jump branch of both damping channels.
func (s *CompiledState) ScaleBit(q int, f complex128) {
	col := s.space.column(q)
	for _, i := range s.active {
		if hasBit(col, i) {
			s.amps[i] = s.amps[i] * f
		}
	}
}

// NegateBit applies Pauli Z on qubit q.
func (s *CompiledState) NegateBit(q int) {
	col := s.space.column(q)
	for _, i := range s.active {
		if hasBit(col, i) {
			s.amps[i] = -s.amps[i]
		}
	}
}

// ProjectBit drops every support state with qubit q clear: the
// phase-damping jump. The support keeps its order.
func (s *CompiledState) ProjectBit(q int) {
	col := s.space.column(q)
	w := 0
	for _, i := range s.active {
		if !hasBit(col, i) {
			s.amps[i] = 0
			s.stamp[i] = 0
			continue
		}
		s.active[w] = i
		w++
	}
	s.active = s.active[:w]
}

// LoadMoved replaces s with src moved by m on qubit q, living on space to;
// idx is src.Space().MoveIndex(q, m, to). Amplitudes follow Sparse.ApplyX,
// Sparse.ApplyY and Sparse.ApplyDecay exactly. s and src must be distinct.
func (s *CompiledState) LoadMoved(src *CompiledState, q int, m Move, idx []int32, to *CompiledSpace) {
	s.Rebind(to)
	var col []uint64
	if m == MoveY {
		col = src.space.column(q)
	}
	for _, i := range src.active {
		j := idx[i]
		if j < 0 {
			continue // annihilated by the decay jump
		}
		a := src.amps[i]
		if m == MoveY {
			if hasBit(col, i) {
				a = a * complex(0, -1)
			} else {
				a = a * complex(0, 1)
			}
		}
		s.amps[j] = a
		s.stamp[j] = s.epoch
		s.active = append(s.active, j)
	}
	s.sorted = false
}

// ToSparse copies the state into the map engine's representation, with the
// same support and amplitudes.
func (s *CompiledState) ToSparse() *Sparse {
	sp := &Sparse{n: s.space.n, amps: make(map[bitvec.Vec]complex128, len(s.active))}
	for _, i := range s.active {
		sp.amps[s.space.states[i]] = s.amps[i]
	}
	return sp
}

// Outcome is one measured basis state of a compiled space and how many
// shots landed on it.
type Outcome struct {
	Index int32
	Count int
}

// SampleOutcomes draws shots measurements and returns the states hit, in
// ascending index (bitvec.Compare) order, each once with its shot count.
// The CDF construction, the up-front sorted uniform draws, and the single
// merge pass are the same algorithm — and the same rng consumption — as
// Sparse.Sample, so for equal amplitudes the outcomes are identical. The
// returned slice is reused scratch, valid until the next call.
func (s *CompiledState) SampleOutcomes(rng *rand.Rand, shots int) []Outcome {
	keys := s.SortedActive()
	if cap(s.cdf) < len(keys) {
		s.cdf = make([]float64, len(keys))
	}
	cdf := s.cdf[:len(keys)]
	acc := 0.0
	for i, k := range keys {
		a := s.amps[k]
		acc += real(a)*real(a) + imag(a)*imag(a)
		cdf[i] = acc
	}
	out := s.outcomes[:0]
	if len(keys) == 0 || shots <= 0 {
		s.outcomes = out
		return out
	}
	if cap(s.draws) < shots {
		s.draws = make([]float64, shots)
	}
	draws := s.draws[:shots]
	for i := range draws {
		draws[i] = rng.Float64() * acc
	}
	sort.Float64s(draws)
	idx, pending := 0, 0
	for _, r := range draws {
		for idx < len(keys)-1 && cdf[idx] < r {
			if pending > 0 {
				out = append(out, Outcome{keys[idx], pending})
				pending = 0
			}
			idx++
		}
		pending++
	}
	out = append(out, Outcome{keys[idx], pending})
	s.outcomes = out
	return out
}

// Sample draws shots measurements as a basis-state count map, bit-identical
// to Sparse.Sample on an equal state (same draws, same cell boundaries).
func (s *CompiledState) Sample(rng *rand.Rand, shots int) map[bitvec.Vec]int {
	out := make(map[bitvec.Vec]int)
	for _, o := range s.SampleOutcomes(rng, shots) {
		out[s.space.states[o.Index]] += o.Count
	}
	return out
}
