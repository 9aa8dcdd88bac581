// Package core implements the paper's primary contribution: the
// transition-Hamiltonian expansion algorithm (Rasengan) with its three
// algorithm-hardware codesign optimizations — Hamiltonian simplification
// and pruning (Section 4.1), probability-preserving segmented execution
// (Section 4.2), and purification-based error mitigation (Section 4.3).
package core

import (
	"fmt"
	"sort"

	"rasengan/internal/bitvec"
	"rasengan/internal/linalg"
	"rasengan/internal/problems"
)

// IsTernary reports whether every entry of u lies in {-1, 0, 1} and u is
// nonzero — the validity condition isValid(u) of Algorithm 1.
func IsTernary(u []int64) bool {
	nz := false
	for _, v := range u {
		if v < -1 || v > 1 {
			return false
		}
		if v != 0 {
			nz = true
		}
	}
	return nz
}

// NonZero counts the nonzero entries of u (the nnz objective Algorithm 1
// minimizes; the circuit cost of a transition operator is linear in it).
func NonZero(u []int64) int {
	c := 0
	for _, v := range u {
		if v != 0 {
			c++
		}
	}
	return c
}

// Canonical returns u with its first nonzero entry positive (H^τ(u) ==
// H^τ(−u), so signs are an artifact), for deduplication.
func Canonical(u []int64) []int64 {
	for _, v := range u {
		if v > 0 {
			return u
		}
		if v < 0 {
			w := make([]int64, len(u))
			for i, x := range u {
				w[i] = -x
			}
			return w
		}
	}
	return u
}

func vecKey(u []int64) string {
	b := make([]byte, len(u))
	for i, v := range u {
		b[i] = byte(v + 2)
	}
	return string(b)
}

// Simplify is Algorithm 1 of the paper: greedy passes over ordered pairs
// of basis vectors that replace u_i with u_i ± u_j whenever the
// combination stays in {-1,0,1}^n and has strictly fewer nonzero entries.
// The paper presents a single pass; this implementation repeats the pass
// to a fixpoint (each replacement can enable further reductions — on
// large facility-location kernels one pass leaves support-50 vectors that
// three passes shrink to the natural support-18 facility toggles) and
// scans all ordered pairs rather than only j > i. It returns a new slice;
// the input is not modified.
func Simplify(basis [][]int64) [][]int64 {
	out := make([][]int64, len(basis))
	nnz := make([]int, len(basis))
	for i, u := range basis {
		out[i] = append([]int64(nil), u...)
		nnz[i] = NonZero(u)
	}
	const maxPasses = 10
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for i := 0; i < len(out); i++ {
			for j := 0; j < len(out); j++ {
				if i == j {
					continue
				}
				// Both candidates combine u_i as it was before this pair;
				// the difference is tested against the support left by a
				// possible sum replacement, in the original loop's order.
				ui, uj := out[i], out[j]
				addNZ, subNZ, addOK, subOK := pairSupport(ui, uj)
				if addOK && addNZ < nnz[i] {
					out[i], nnz[i] = combine(ui, uj, 1), addNZ
					improved = true
				}
				if subOK && subNZ < nnz[i] {
					out[i], nnz[i] = combine(ui, uj, -1), subNZ
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}
	return out
}

// pairSupport reports, in one pass and without allocating, whether u+w
// and u−w are valid transition vectors (IsTernary) and their nonzero
// counts. The counts are meaningful only when the matching flag is true.
func pairSupport(u, w []int64) (addNZ, subNZ int, addOK, subOK bool) {
	addOK, subOK = true, true
	for k, a := range u {
		b := w[k]
		switch s := a + b; {
		case s < -1 || s > 1:
			addOK = false
		case s != 0:
			addNZ++
		}
		switch d := a - b; {
		case d < -1 || d > 1:
			subOK = false
		case d != 0:
			subNZ++
		}
		if !addOK && !subOK {
			break
		}
	}
	return addNZ, subNZ, addOK && addNZ > 0, subOK && subNZ > 0
}

// combine returns u + sign·w as a new vector.
func combine(u, w []int64, sign int64) []int64 {
	out := make([]int64, len(u))
	for k := range out {
		out[k] = u[k] + sign*w[k]
	}
	return out
}

// TernarySearchOptions bounds the ternary kernel vector search.
type TernarySearchOptions struct {
	MaxSupport int // largest allowed nnz; 0 means n
	NodeBudget int // DFS node cap; 0 means 4,000,000
	MaxVectors int // stop after collecting this many; 0 means 512
}

// TernaryKernelVectors enumerates nonzero vectors u ∈ {-1,0,1}^n with
// C·u = 0 by depth-first search with per-row interval pruning, up to the
// given support bound and budgets. The first nonzero entry is fixed to +1
// (H^τ is sign-symmetric). It returns vectors sorted by support size.
//
// This is the fallback path of the basis pipeline: when the rational
// nullspace basis leaves {-1,0,1}^n (e.g. graph coloring, where slack
// columns pick up ±2), the transition Hamiltonians the paper's Definition
// 1 requires must be recovered directly as ternary kernel vectors.
func TernaryKernelVectors(C *linalg.IntMat, opts TernarySearchOptions) [][]int64 {
	n := C.Cols
	rows := C.Rows
	if opts.MaxSupport <= 0 || opts.MaxSupport > n {
		opts.MaxSupport = n
	}
	if opts.NodeBudget <= 0 {
		opts.NodeBudget = 4_000_000
	}
	if opts.MaxVectors <= 0 {
		opts.MaxVectors = 512
	}
	// Suffix bounds: the maximum |contribution| the undecided variables
	// i..n-1 can add to each row.
	sufAbs := make([][]int64, rows)
	for r := 0; r < rows; r++ {
		sufAbs[r] = make([]int64, n+1)
		for i := n - 1; i >= 0; i-- {
			c := C.At(r, i)
			if c < 0 {
				c = -c
			}
			sufAbs[r][i] = sufAbs[r][i+1] + c
		}
	}
	var out [][]int64
	cur := make([]int64, n)
	sums := make([]int64, rows)
	nodes := 0
	var dfs func(i, support int, anyNonzero bool)
	dfs = func(i, support int, anyNonzero bool) {
		nodes++
		if nodes > opts.NodeBudget || len(out) >= opts.MaxVectors {
			return
		}
		for r := 0; r < rows; r++ {
			if s := sums[r]; s > sufAbs[r][i] || -s > sufAbs[r][i] {
				return
			}
		}
		if i == n {
			if anyNonzero {
				out = append(out, append([]int64(nil), cur...))
			}
			return
		}
		vals := []int64{0, 1, -1}
		if !anyNonzero {
			vals = []int64{0, 1} // canonical: first nonzero is +1
		}
		for _, v := range vals {
			if v != 0 && support == opts.MaxSupport {
				continue
			}
			cur[i] = v
			if v != 0 {
				for r := 0; r < rows; r++ {
					sums[r] += v * C.At(r, i)
				}
			}
			ns := support
			na := anyNonzero
			if v != 0 {
				ns++
				na = true
			}
			dfs(i+1, ns, na)
			if v != 0 {
				for r := 0; r < rows; r++ {
					sums[r] -= v * C.At(r, i)
				}
			}
			cur[i] = 0
		}
	}
	dfs(0, 0, false)
	sort.SliceStable(out, func(a, b int) bool { return NonZero(out[a]) < NonZero(out[b]) })
	return out
}

// Basis is the constructed homogeneous move set for a problem: M is the
// kernel dimension (the paper's m), Vectors the transition vectors the
// schedule draws from (≥ M entries when the fallback search enriched the
// pool), and TU whether the constraint matrix passed the total
// unimodularity heuristic (choosing the m² vs m³ schedule bound of
// Theorem 1).
type Basis struct {
	Vectors [][]int64
	M       int
	TU      bool

	// SimplifySaved reports how many nonzero entries Algorithm 1 removed,
	// for the ablation study.
	SimplifySaved int
	// UsedTernarySearch records whether the fallback search ran.
	UsedTernarySearch bool
}

// BasisOptions configures BuildBasis. The zero value enables everything.
type BasisOptions struct {
	DisableSimplify bool // ablation switch for opt 1
	Search          TernarySearchOptions
}

// BuildBasis derives the transition vector pool from the constraints:
// rational nullspace basis → Algorithm 1 simplification → ternary kernel
// search fallback when some basis vectors remain outside {-1,0,1}^n or
// the pool fails to expand the feasible space from the seed. The returned
// pool is deduplicated up to sign.
func BuildBasis(p *problems.Problem, opts BasisOptions) (*Basis, error) {
	raw := linalg.Nullspace(p.C)
	m := len(raw)
	if m == 0 {
		return nil, fmt.Errorf("core: %s has a trivial nullspace — the feasible solution is unique", p.Name)
	}
	b := &Basis{M: m, TU: linalg.IsTotallyUnimodularHeuristic(p.C)}

	work := raw
	if !opts.DisableSimplify {
		before := 0
		for _, u := range raw {
			before += NonZero(u)
		}
		work = Simplify(raw)
		after := 0
		for _, u := range work {
			after += NonZero(u)
		}
		b.SimplifySaved = before - after
	}

	nonTernary := false
	collect := func(sets ...[][]int64) [][]int64 {
		seen := map[string]bool{}
		var pool [][]int64
		for _, set := range sets {
			for _, u := range set {
				if !IsTernary(u) {
					nonTernary = true
					continue
				}
				c := Canonical(u)
				k := vecKey(c)
				if !seen[k] {
					seen[k] = true
					pool = append(pool, c)
				}
			}
		}
		return pool
	}
	// Candidate pools: the simplified basis alone (cheapest circuits), or
	// its union with the raw rational basis and the integer (HNF) kernel
	// basis — the latter stays in ℤ throughout and frequently contributes
	// ternary vectors the rational elimination misses. Algorithm 1's
	// replacements can break single-move connectivity of the feasible
	// graph, so the simplified-only pool is kept only when a bounded
	// closure shows it reaches exactly the states the union does.
	hnf := linalg.KernelBasisInteger(p.C)
	union := collect(work, raw, hnf)
	if !opts.DisableSimplify {
		// Enrich with ternary combinations of the sparse members (the
		// "switch" moves whose compositions Algorithm 1 needs as chipping
		// material), re-simplify the union against that material, and keep
		// only the improved originals: this is what lets large facility-
		// location kernels reduce their support-50 RREF artifacts down to
		// the natural support-(D+1) facility toggles without bloating the
		// pool with the helper compositions themselves.
		enriched := enrichSparsePairs(union, 8, 4*len(union)+16)
		simpInput := append(append([][]int64{}, union...), enriched...)
		simp := Simplify(simpInput)
		union = collect(union, simp[:len(union)])
	}
	pool := union
	if !opts.DisableSimplify {
		simplifiedOnly := collect(work)
		if len(simplifiedOnly) > 0 && len(simplifiedOnly) < len(union) {
			if problems.FeasibleClosureSize(p, simplifiedOnly, basisClosureCap) == problems.FeasibleClosureSize(p, union, basisClosureCap) {
				pool = simplifiedOnly
			}
		}
	}

	// Fallback: the pool must both span enough directions and actually
	// move the seed solution around the feasible space. If some rational
	// basis vector was non-ternary (Definition 1 cannot express it as a
	// transition Hamiltonian) or the expansion dry-run saturates at a
	// single state, recover ternary kernel vectors directly.
	needSearch := nonTernary || len(pool) < m
	if !needSearch {
		reach := expansionReach(p, pool, 2)
		needSearch = reach <= 1
	}
	if needSearch {
		// The searched pool supersedes the rational-basis pool entirely:
		// the DFS enumerates every ternary kernel vector up to a support
		// bound, which includes whatever Algorithm 1 could have produced,
		// and keeping it canonical makes the simplify ablation meaningful
		// on instances that need the fallback.
		//
		// The support bound is deepened iteratively, measuring the
		// feasible-graph closure of each level's pool, so small-support
		// circuits are enumerated exhaustively before any vector cap can
		// bite; the level with the largest closure wins. Compound moves
		// (e.g. color swaps) can appear many support levels above the
		// basic circuits, so the ladder does not stop at the first
		// plateau. It stops when the best closure reaches the cap or
		// covers the whole feasible set: the closure of a feasible seed
		// under kernel moves never leaves that set, so no deeper level
		// can strictly improve on it and bestPool is final.
		b.UsedTernarySearch = true
		search := opts.Search
		bound := search.MaxSupport
		if bound == 0 {
			bound = maxSupportDefault(p.N)
		}
		if search.MaxVectors == 0 {
			search.MaxVectors = 2048
		}
		limit := basisClosureCap
		if p.N <= coverageEnumMaxN && p.Feasible(p.Init) {
			limit = len(problems.EnumerateFeasible(p, basisClosureCap))
		}
		var bestPool [][]int64
		bestClosure := 0
		for sup := 2; sup <= bound; sup++ {
			s := search
			s.MaxSupport = sup
			cand := collect(TernaryKernelVectors(p.C, s))
			cl := problems.FeasibleClosureSize(p, cand, basisClosureCap)
			if cl > bestClosure {
				bestClosure, bestPool = cl, cand
			}
			if bestClosure >= limit {
				break
			}
		}
		if len(bestPool) > 0 {
			pool = bestPool
		}
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("core: %s: no ternary homogeneous vectors found", p.Name)
	}
	// Order the pool: fewest nonzeros first (cheapest circuits first).
	sort.SliceStable(pool, func(i, j int) bool { return NonZero(pool[i]) < NonZero(pool[j]) })
	b.Vectors = pool
	return b, nil
}

func maxSupportDefault(n int) int {
	if n <= 16 {
		return n
	}
	s := n / 2
	if s < 12 {
		s = 12
	}
	return s
}

// enrichSparsePairs returns the ternary pairwise sums/differences of pool
// members whose support is at most maxSupport (and whose results stay
// within it), capped at maxNew vectors. Compositions of sparse "switch"
// moves are exactly the chipping material iterated simplification needs.
func enrichSparsePairs(pool [][]int64, maxSupport, maxNew int) [][]int64 {
	var sparse [][]int64
	for _, u := range pool {
		if NonZero(u) <= maxSupport {
			sparse = append(sparse, u)
		}
	}
	seen := map[string]bool{}
	for _, u := range pool {
		seen[vecKey(Canonical(u))] = true
	}
	var out [][]int64
	for i := 0; i < len(sparse) && len(out) < maxNew; i++ {
		for j := i + 1; j < len(sparse) && len(out) < maxNew; j++ {
			for _, sign := range []int64{1, -1} {
				w := combine(sparse[i], sparse[j], sign)
				if !IsTernary(w) || NonZero(w) > maxSupport {
					continue
				}
				c := Canonical(w)
				k := vecKey(c)
				if !seen[k] {
					seen[k] = true
					out = append(out, c)
				}
			}
		}
	}
	return out
}

// basisClosureCap bounds the closure comparison of BuildBasis; beyond it
// the two pools are considered equivalent (both already cover far more
// states than any schedule will track).
const basisClosureCap = 20000

// coverageEnumMaxN is the widest instance whose feasible set is counted
// exhaustively, by VerifyCoverage and by the ternary-search ladder's stop
// rule.
const coverageEnumMaxN = 24

// CoverageReport is the diagnostic BuildBasis users run to confirm
// Theorem 1 holds for their formulation: the number of feasible states
// the constructed pool reaches from the seed versus the true feasible
// count (exact only when the instance is narrow enough to enumerate).
type CoverageReport struct {
	Reached int
	// Total is the exhaustive feasible count, or -1 when the instance is
	// too wide to enumerate and only Reached is meaningful.
	Total int
	// Complete is true when Total ≥ 0 and Reached == Total.
	Complete bool
}

// VerifyCoverage builds the basis pool for p and reports how much of the
// feasible space it connects. Use it before trusting a solve on a new
// problem encoding: an incomplete report means the optimum may be
// unreachable and the formulation (or search budgets) needs attention.
func VerifyCoverage(p *problems.Problem, opts BasisOptions) (CoverageReport, error) {
	basis, err := BuildBasis(p, opts)
	if err != nil {
		return CoverageReport{}, err
	}
	rep := CoverageReport{Total: -1}
	rep.Reached = problems.FeasibleClosureSize(p, basis.Vectors, basisClosureCap)
	if p.N <= coverageEnumMaxN {
		rep.Total = len(problems.EnumerateFeasible(p, 0))
		rep.Complete = rep.Reached == rep.Total
	}
	return rep, nil
}

// expansionReach dry-runs `rounds` rounds of the pool over the feasible
// graph from the seed and returns how many states become reachable.
func expansionReach(p *problems.Problem, pool [][]int64, rounds int) int {
	moves := bitvec.NewMoves(pool)
	reach := map[bitvec.Vec]bool{p.Init: true}
	for r := 0; r < rounds; r++ {
		frontier := make([]bitvec.Vec, 0, len(reach))
		for x := range reach {
			frontier = append(frontier, x)
		}
		for _, x := range frontier {
			for i := range moves {
				for _, fwd := range [2]bool{true, false} {
					if y, ok := x.Apply(&moves[i], fwd); ok {
						reach[y] = true
					}
				}
			}
		}
	}
	return len(reach)
}
