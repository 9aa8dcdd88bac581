package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// refApply is the bit-at-a-time definition Move must reproduce: v + sign·d
// over the integers, false when a component leaves {0,1}. Entries of d are
// assumed to lie in {-1,0,1}.
func refApply(v Vec, d []int64, sign int64) (Vec, bool) {
	out := v
	for i, di := range d {
		switch sign * di {
		case 1:
			if v.Bit(i) {
				return Vec{}, false
			}
			out.Set(i, true)
		case -1:
			if !v.Bit(i) {
				return Vec{}, false
			}
			out.Set(i, false)
		}
	}
	return out, true
}

// checkMove compares both directions of NewMove(d) on v against refApply.
func checkMove(t *testing.T, v Vec, d []int64) {
	t.Helper()
	m := NewMove(d)
	for _, fwd := range []bool{true, false} {
		sign := int64(1)
		if !fwd {
			sign = -1
		}
		got, ok := v.Apply(&m, fwd)
		want, wok := refApply(v, d, sign)
		if ok != wok || got != want {
			t.Fatalf("n=%d forward=%v: Apply = (%v, %v), want (%v, %v)\nv=%v d=%v",
				v.Len(), fwd, got, ok, want, wok, v, d)
		}
	}
}

func TestMoveApply(t *testing.T) {
	x := FromBits([]int{0, 0, 0, 1, 0})
	u := NewMove([]int64{-1, 1, 0, 0, 0})
	if _, ok := x.Apply(&u, true); ok {
		t.Error("x+u should be invalid (x0-1 = -1)")
	}
	// x - u2 with u2 = [-1,0,-1,1,0]: x2 = [1,0,1,0,0] (paper example).
	u2 := NewMove([]int64{-1, 0, -1, 1, 0})
	got, ok := x.Apply(&u2, false)
	if !ok {
		t.Fatal("x-u2 should be valid")
	}
	want := FromBits([]int{1, 0, 1, 0, 0})
	if !got.Equal(want) {
		t.Errorf("x-u2 = %v, want %v", got, want)
	}
	// x + u3 with u3 = [1,0,1,0,1]: x3 = [1,0,1,1,1] (paper example).
	u3 := NewMove([]int64{1, 0, 1, 0, 1})
	got, ok = x.Apply(&u3, true)
	if !ok {
		t.Fatal("x+u3 should be valid")
	}
	want = FromBits([]int{1, 0, 1, 1, 1})
	if !got.Equal(want) {
		t.Errorf("x+u3 = %v, want %v", got, want)
	}
}

func TestMoveApplyInverse(t *testing.T) {
	// Property: if x+u is valid then (x+u)-u == x.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		v := New(n)
		for i := 0; i < n; i++ {
			v.Set(i, rng.Intn(2) == 1)
		}
		u := make([]int64, n)
		for i := range u {
			u[i] = int64(rng.Intn(3) - 1)
		}
		m := NewMove(u)
		w, ok := v.Apply(&m, true)
		if !ok {
			return true
		}
		back, ok2 := w.Apply(&m, false)
		return ok2 && back.Equal(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMoveMatchesReference drives sparse random moves across every word
// boundary length; sparse d on a vector agreeing with it makes valid moves
// common, so both the accept and the annihilate path are exercised.
func TestMoveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range boundaryLengths {
		for trial := 0; trial < 200; trial++ {
			d := make([]int64, n)
			v := New(n)
			for i := 0; i < n; i++ {
				if rng.Intn(8) == 0 {
					d[i] = int64(2*rng.Intn(2) - 1)
				}
				// Mostly the bit d's forward move needs, sometimes not.
				bit := d[i] == -1
				if d[i] == 0 || rng.Intn(10) == 0 {
					bit = rng.Intn(2) == 1
				}
				v.Set(i, bit)
			}
			checkMove(t, v, d)
		}
		// The all-zero move is the identity in both directions.
		checkMove(t, New(n), make([]int64, n))
	}
}

func TestMovePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	m := NewMove([]int64{1, 0, -1})
	mustPanic("length mismatch", func() { New(4).Apply(&m, true) })
	mustPanic("length mismatch reverse", func() { New(2).Apply(&m, false) })
	// The bit-at-a-time definition only reached a bad entry when no
	// earlier entry annihilated; compiling rejects it unconditionally.
	mustPanic("entry 2", func() { NewMove([]int64{1, 2}) })
	mustPanic("entry -2", func() { NewMove([]int64{0, 0, -2}) })
	mustPanic("oversized", func() { NewMove(make([]int64, MaxBits+1)) })
}

// FuzzMoveApply decodes the input as a length and per-position (bit,
// entry) pairs and checks both directions against refApply.
func FuzzMoveApply(f *testing.F) {
	f.Add([]byte{5, 0, 1, 1, 2, 0, 0, 1, 1, 0, 2})
	f.Add([]byte{64, 1, 2, 1, 1})
	f.Add([]byte{192})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%MaxBits
		data = data[1:]
		v := New(n)
		d := make([]int64, n)
		for i := 0; i < n && i < len(data); i++ {
			b := data[i]
			v.Set(i, b&1 == 1)
			d[i] = int64((b>>1)%3) - 1
		}
		checkMove(t, v, d)
	})
}
