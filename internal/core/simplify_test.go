package core

import (
	"math/rand"
	"reflect"
	"testing"
)

// simplifyReference is the allocate-per-pair form of Algorithm 1 that
// Simplify must reproduce exactly: both combinations are built from the
// pre-replacement u_i, and the difference is compared against u_i's
// support after a possible sum replacement.
func simplifyReference(basis [][]int64) [][]int64 {
	out := make([][]int64, len(basis))
	for i, u := range basis {
		out[i] = append([]int64(nil), u...)
	}
	const maxPasses = 10
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for i := 0; i < len(out); i++ {
			for j := 0; j < len(out); j++ {
				if i == j {
					continue
				}
				add := make([]int64, len(out[i]))
				sub := make([]int64, len(out[i]))
				for k := range out[i] {
					add[k] = out[i][k] + out[j][k]
					sub[k] = out[i][k] - out[j][k]
				}
				if IsTernary(add) && NonZero(add) < NonZero(out[i]) {
					out[i] = add
					improved = true
				}
				if IsTernary(sub) && NonZero(sub) < NonZero(out[i]) {
					out[i] = sub
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

// randomBasis draws m vectors of length n in one of three shapes: integer
// entries in [-2,2] (a rational nullspace basis before simplification),
// ternary entries, or ternary vectors on disjoint supports, whose sums and
// differences are both ternary.
func randomBasis(rng *rand.Rand, shape, m, n int) [][]int64 {
	basis := make([][]int64, m)
	for i := range basis {
		basis[i] = make([]int64, n)
	}
	switch shape {
	case 0, 1:
		span := int64(3)
		if shape == 0 {
			span = 5
		}
		for _, u := range basis {
			for k := range u {
				if rng.Intn(3) == 0 {
					u[k] = rng.Int63n(span) - span/2
				}
			}
		}
	case 2:
		for k := 0; k < n; k++ {
			if rng.Intn(4) > 0 {
				basis[rng.Intn(m)][k] = int64(2*rng.Intn(2) - 1)
			}
		}
		// A few overlapping vectors give the disjoint ones something to
		// reduce against.
		for r := 0; r < m/3; r++ {
			i, j := rng.Intn(m), rng.Intn(m)
			if i != j {
				for k := range basis[i] {
					if s := basis[i][k] + basis[j][k]; s >= -1 && s <= 1 {
						basis[i][k] = s
					}
				}
			}
		}
	}
	return basis
}

func TestSimplifyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 600; trial++ {
		shape := trial % 3
		m := 2 + rng.Intn(10)
		n := 1 + rng.Intn(24)
		basis := randomBasis(rng, shape, m, n)
		orig := make([][]int64, len(basis))
		for i, u := range basis {
			orig[i] = append([]int64(nil), u...)
		}
		got, want := Simplify(basis), simplifyReference(basis)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (shape %d): Simplify diverged from the reference\nbasis %v\ngot   %v\nwant  %v",
				trial, shape, orig, got, want)
		}
		if !reflect.DeepEqual(basis, orig) {
			t.Fatalf("trial %d: Simplify mutated its input", trial)
		}
	}
}

// TestPairSupport checks the one-pass counts against IsTernary and
// NonZero of the materialized sum and difference, including pairs on
// disjoint supports where both are ternary at once.
func TestPairSupport(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	both := 0
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(12)
		b := randomBasis(rng, trial%3, 2, n)
		u, w := b[0], b[1]
		addNZ, subNZ, addOK, subOK := pairSupport(u, w)
		add, sub := combine(u, w, 1), combine(u, w, -1)
		if addOK != IsTernary(add) || subOK != IsTernary(sub) {
			t.Fatalf("u=%v w=%v: flags (%v,%v), want (%v,%v)", u, w, addOK, subOK, IsTernary(add), IsTernary(sub))
		}
		if addOK && addNZ != NonZero(add) || subOK && subNZ != NonZero(sub) {
			t.Fatalf("u=%v w=%v: counts (%d,%d), want (%d,%d)", u, w, addNZ, subNZ, NonZero(add), NonZero(sub))
		}
		if addOK && subOK {
			both++
		}
	}
	if both == 0 {
		t.Fatal("no pair had both combinations ternary; the generator lost its disjoint shape")
	}
}
