package intmat

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHermiteLeftBasic(t *testing.T) {
	m := New(3, 2, 2, 4, 6, 8, 10, 12)
	q, h := HermiteLeft(m)
	if !q.IsUnimodular() {
		t.Fatalf("Q not unimodular: %v (det %d)", q, q.Det())
	}
	if !Mul(q, h).Equal(m) {
		t.Fatalf("Q·H = %v != %v", Mul(q, h), m)
	}
	// upper echelon: entries below each pivot row within pivot col are 0,
	// and zero rows come last.
	if h.At(1, 0) != 0 || h.At(2, 0) != 0 || h.At(2, 1) != 0 {
		t.Fatalf("H not echelon: %v", h)
	}
}

func TestHermiteLeftFullColumnRankShape(t *testing.T) {
	// For full column rank d, H must be [H1; 0] with H1 upper triangular
	// with positive diagonal.
	m := New(3, 2, 0, 1, 1, 0, 1, 1)
	q, h := HermiteLeft(m)
	if !Mul(q, h).Equal(m) {
		t.Fatal("decomposition broken")
	}
	if h.At(0, 0) <= 0 || h.At(1, 1) <= 0 {
		t.Fatalf("pivots not positive: %v", h)
	}
	if h.At(1, 0) != 0 || h.At(2, 0) != 0 || h.At(2, 1) != 0 {
		t.Fatalf("H not [H1;0]: %v", h)
	}
}

func TestHermiteProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := 1 + r.Intn(4)
		cols := 1 + r.Intn(4)
		m := RandMat(rng, rows, cols, 6)
		q, h := HermiteLeft(m)
		if !q.IsUnimodular() || !Mul(q, h).Equal(m) {
			return false
		}
		// echelon shape: pivot columns strictly increase
		last := -1
		for i := 0; i < h.Rows(); i++ {
			p := -1
			for j := 0; j < h.Cols(); j++ {
				if h.At(i, j) != 0 {
					p = j
					break
				}
			}
			if p == -1 {
				continue
			}
			if p <= last {
				return false
			}
			last = p
		}
		return h.Rank() == m.Rank()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestInverseUnimodular(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(4)
		u := RandUnimodular(rng, n, 8)
		inv := InverseUnimodular(u)
		if !Mul(u, inv).IsIdentity() || !Mul(inv, u).IsIdentity() {
			t.Fatalf("bad inverse: u=%v inv=%v", u, inv)
		}
	}
}

func TestInverseUnimodularPanicsOnSingular(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	InverseUnimodular(New(2, 2, 2, 0, 0, 2))
}

func TestLeftInverseInt(t *testing.T) {
	// Paper §2.2.2 remark: for narrow F any G with G·F = Id works.
	// F2 = [[1,0],[0,1],[1,1]]-like narrow matrices.
	f := New(3, 2, 1, 0, 0, 1, 1, 1)
	g, ok := LeftInverseInt(f)
	if !ok {
		t.Fatalf("no integer left inverse for %v", f)
	}
	if !Mul(g, f).IsIdentity() {
		t.Fatalf("G·F = %v", Mul(g, f))
	}
}

func TestLeftInverseIntNotExists(t *testing.T) {
	// Columns with content 2: no integer left inverse.
	f := New(2, 1, 2, 0)
	if _, ok := LeftInverseInt(f); ok {
		t.Fatal("claimed integer left inverse of [2;0]")
	}
	// rank deficient
	f2 := New(3, 2, 1, 1, 2, 2, 3, 3)
	if _, ok := LeftInverseInt(f2); ok {
		t.Fatal("claimed left inverse of rank-deficient matrix")
	}
}

func TestLeftInverseIntProperty(t *testing.T) {
	// Build F = U·[Id;0] for random unimodular U: integer left inverse
	// must exist and satisfy G·F = Id.
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		q := 2 + rng.Intn(3)
		d := 1 + rng.Intn(q)
		u := RandUnimodular(rng, q, 8)
		idPad := Zero(q, d)
		for i := 0; i < d; i++ {
			idPad.Set(i, i, 1)
		}
		f := Mul(u, idPad)
		g, ok := LeftInverseInt(f)
		if !ok {
			t.Fatalf("trial %d: no left inverse for %v", trial, f)
		}
		if !Mul(g, f).IsIdentity() {
			t.Fatalf("trial %d: G·F != Id", trial)
		}
	}
}
