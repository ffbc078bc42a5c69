package intmat

import (
	"fmt"
	"time"
)

// KernelCache is a memo store for the expensive kernels of this
// package (Hermite normal forms and integer kernel bases).
// Implementations must be safe for concurrent use; package engine
// provides one, and a Kernels handle consults it. Keys are canonical
// (operation-prefixed Mat.Key), so a hit is always the exact result
// of the same computation. The values stored under the keys are
// private to this package.
type KernelCache interface {
	Get(key string) (any, bool)
	Put(key string, v any)
}

// Kernels is one computation's handle on the kernel memo: the cache
// its Hermite forms, unimodular inverses and kernel bases are looked
// up in and stored to, and the cost of the kernels it had to compute.
// Dur and Ops accumulate the wall-clock time and count of every
// kernel not served by Cache (all of them when Cache is nil); hits
// are not counted, so they attribute compute cost, not lookup cost.
//
// Results handed to callers are deep copies of the cached matrices,
// so a hit is observationally identical to recomputation and callers
// may freely mutate what they receive. A nil *Kernels computes every
// kernel directly, with no key hashing and no timing. A Kernels
// belongs to one computation and is not safe for concurrent use; the
// Cache behind it may be shared.
type Kernels struct {
	Cache KernelCache
	Dur   time.Duration
	Ops   int
}

// HermiteLeft is the memoized HermiteLeft.
func (k *Kernels) HermiteLeft(m *Mat) (Q, H *Mat) {
	p := memo(k, "hnfL", m, func(m *Mat) matPair {
		q, h := HermiteLeft(m)
		return matPair{q, h}
	}, matPair.clone)
	return p.a, p.b
}

// InverseUnimodular is the memoized InverseUnimodular.
func (k *Kernels) InverseUnimodular(m *Mat) *Mat {
	return memo(k, "inv", m, InverseUnimodular, (*Mat).Clone)
}

// KernelBasis is the memoized KernelBasis.
func (k *Kernels) KernelBasis(m *Mat) *Mat {
	return memo(k, "ker", m, KernelBasis, (*Mat).Clone)
}

// LeftKernelBasis is the memoized LeftKernelBasis.
func (k *Kernels) LeftKernelBasis(m *Mat) *Mat {
	return k.KernelBasis(m.Transpose()).Transpose()
}

// KernelIntersection is the memoized KernelIntersection.
func (k *Kernels) KernelIntersection(ms ...*Mat) *Mat {
	return k.KernelBasis(stackNonEmpty(ms))
}

// memo memoizes one kernel under op+":"+m.Key(), cloning on both
// store and load, and charges a computed (not cached) kernel to k;
// with a nil k it only computes. A cached value of the wrong type
// (possible only if a persistence layer fed back a record under the
// wrong key) is ignored and recomputed.
func memo[T any](k *Kernels, op string, m *Mat, compute func(*Mat) T, clone func(T) T) T {
	if k == nil {
		return compute(m)
	}
	var key string
	if k.Cache != nil {
		key = op + ":" + m.Key()
		if v, ok := k.Cache.Get(key); ok {
			if r, ok := v.(T); ok {
				return clone(r)
			}
		}
	}
	t0 := time.Now()
	r := compute(m)
	k.Dur += time.Since(t0)
	k.Ops++
	if k.Cache != nil {
		k.Cache.Put(key, clone(r))
	}
	return r
}

// matPair is the cached value of a two-matrix kernel result.
type matPair struct{ a, b *Mat }

func (p matPair) clone() matPair { return matPair{p.a.Clone(), p.b.Clone()} }

// KernelRec is the portable, JSON-serializable form of one kernel
// memo value — a single matrix or a pair — so a disk tier can persist
// the kernel cache (Hermite forms, unimodular inverses, kernel bases)
// under the same op:key scheme Kernels uses.
type KernelRec struct {
	A Rec  `json:"a"`
	B *Rec `json:"b,omitempty"`
}

// EncodeKernelValue serializes a value a Kernels handle stored; ok is false for foreign values (which a persistence layer
// must simply skip).
func EncodeKernelValue(v any) (KernelRec, bool) {
	switch t := v.(type) {
	case *Mat:
		return KernelRec{A: t.Rec()}, true
	case matPair:
		b := t.b.Rec()
		return KernelRec{A: t.a.Rec(), B: &b}, true
	}
	return KernelRec{}, false
}

// DecodeKernelValue rebuilds a kernel memo value from its serialized
// form, validating the matrices on the way in. Unlike plan matrices,
// kernel results may legitimately be empty (a trivial kernel has a
// 0-column basis), so zero dimensions are accepted here.
func DecodeKernelValue(r KernelRec) (any, error) {
	a, err := fromRecAllowEmpty(r.A)
	if err != nil {
		return nil, err
	}
	if r.B == nil {
		return a, nil
	}
	b, err := fromRecAllowEmpty(*r.B)
	if err != nil {
		return nil, err
	}
	return matPair{a: a, b: b}, nil
}

// fromRecAllowEmpty is FromRec minus the positive-dimension
// requirement.
func fromRecAllowEmpty(r Rec) (*Mat, error) {
	if r.R < 0 || r.C < 0 {
		return nil, fmt.Errorf("intmat: invalid record dimensions %d×%d", r.R, r.C)
	}
	if len(r.V) != r.R*r.C {
		return nil, fmt.Errorf("intmat: record %d×%d has %d entries, want %d", r.R, r.C, len(r.V), r.R*r.C)
	}
	return New(r.R, r.C, r.V...), nil
}
