package intmat

import (
	"sync"
	"testing"
)

func TestKeyCanonical(t *testing.T) {
	a := New(2, 2, 1, 2, 3, 4)
	b := New(2, 2, 1, 2, 3, 4)
	if a.Key() != b.Key() {
		t.Errorf("equal matrices, different keys: %q vs %q", a.Key(), b.Key())
	}
	if a.Key() != "2x2:1,2,3,4" {
		t.Errorf("key format: %q", a.Key())
	}
	// same entries, different shape must not collide
	if New(1, 4, 1, 2, 3, 4).Key() == a.Key() {
		t.Error("1x4 and 2x2 with the same entries share a key")
	}
	if New(2, 2, 1, 2, 3, 5).Key() == a.Key() {
		t.Error("different entries share a key")
	}
}

// mapCache is a minimal KernelCache for testing the memo.
type mapCache struct {
	mu   sync.Mutex
	m    map[string]any
	hits int
}

func (c *mapCache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[key]
	if ok {
		c.hits++
	}
	return v, ok
}

func (c *mapCache) Put(key string, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = v
}

// memoCases runs each memoized kernel through a handle, returning its
// results as a slice so one table covers one- and two-matrix kernels.
var memoCases = []struct {
	name string
	run  func(k *Kernels) []*Mat
}{
	{"HermiteLeft", func(k *Kernels) []*Mat {
		q, h := k.HermiteLeft(New(3, 2, 12, 4, 6, 8, 10, 14))
		return []*Mat{q, h}
	}},
	{"InverseUnimodular", func(k *Kernels) []*Mat {
		return []*Mat{k.InverseUnimodular(New(2, 2, 1, 1, 0, 1))}
	}},
	{"KernelBasis", func(k *Kernels) []*Mat {
		return []*Mat{k.KernelBasis(New(2, 3, 1, 0, 0, 0, 1, 0))}
	}},
	{"LeftKernelBasis", func(k *Kernels) []*Mat {
		return []*Mat{k.LeftKernelBasis(New(3, 2, 1, 0, 0, 1, 1, 1))}
	}},
	{"KernelIntersection", func(k *Kernels) []*Mat {
		return []*Mat{k.KernelIntersection(New(1, 3, 1, 0, 0), Zero(0, 3), New(1, 3, 0, 1, 0))}
	}},
}

func equalMats(a, b []*Mat) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// TestKernelCacheMemoizes: for every memoized kernel, a cached handle
// returns what a nil handle computes, on the miss and on later hits;
// only the miss is charged to Ops and Dur; and mutating a returned
// matrix — the computed one or a cached copy — cannot corrupt the
// cached value.
func TestKernelCacheMemoizes(t *testing.T) {
	for _, tc := range memoCases {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.run(nil)
			c := &mapCache{m: map[string]any{}}
			k := &Kernels{Cache: c}
			got := tc.run(k)
			if !equalMats(got, want) {
				t.Fatal("cached handle's miss differs from the nil handle")
			}
			if k.Ops != 1 || len(c.m) != 1 {
				t.Fatalf("after a miss: Ops = %d, %d cached values; want 1, 1", k.Ops, len(c.m))
			}
			dur := k.Dur
			for i := 0; i < 2; i++ {
				// poison what the previous call returned
				for _, m := range got {
					m.Set(0, 0, 999)
				}
				got = tc.run(k)
				if !equalMats(got, want) {
					t.Fatal("mutating a returned matrix corrupted the cache")
				}
			}
			if c.hits != 2 {
				t.Errorf("cache hits = %d, want 2", c.hits)
			}
			if k.Ops != 1 || k.Dur != dur {
				t.Errorf("hits were charged: Ops = %d (want 1), Dur %v → %v", k.Ops, dur, k.Dur)
			}
		})
	}
}

// TestKernelCacheDisabled: a nil handle and a handle without a cache
// both compute directly, and the cache-less handle charges every call.
func TestKernelCacheDisabled(t *testing.T) {
	var nilK *Kernels
	if _, h := nilK.HermiteLeft(New(2, 2, 2, 0, 0, 2)); h.At(0, 0) != 2 {
		t.Errorf("HermiteLeft through a nil handle: H = %v", h)
	}
	for _, tc := range memoCases {
		k := &Kernels{}
		for i := 0; i < 3; i++ {
			if got := tc.run(k); !equalMats(got, tc.run(nil)) {
				t.Fatalf("%s: cache-less handle differs from the nil handle", tc.name)
			}
		}
		if k.Ops != 3 {
			t.Errorf("%s: cache-less handle charged %d of 3 calls", tc.name, k.Ops)
		}
	}
}
