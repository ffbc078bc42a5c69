package alignment

import (
	"testing"

	"repro/internal/affine"
	"repro/internal/intmat"
)

func mustAlign(t *testing.T, p *affine.Program, m int, opts Options) *Result {
	t.Helper()
	res, err := Align(nil, p, m, opts)
	if err != nil {
		t.Fatalf("Align(%s, %d): %v", p.Name, m, err)
	}
	return res
}

// checkInvariants verifies the structural guarantees of a Result.
func checkInvariants(t *testing.T, res *Result) {
	t.Helper()
	for name, mat := range res.Alloc {
		dim := mat.Cols()
		want := res.M
		if dim < want {
			want = dim
		}
		if mat.Rows() != want && mat.Rows() != res.M {
			t.Errorf("%s: alloc is %dx%d", name, mat.Rows(), mat.Cols())
		}
		if mat.Rank() != want {
			t.Errorf("%s: alloc %v has rank %d, want %d", name, mat, mat.Rank(), want)
		}
	}
	// every communication marked local must satisfy M_S = M_x·F
	for _, c := range res.Graph.Comms {
		ms := res.Alloc[c.Stmt.Name]
		mx := res.Alloc[c.Access.Array]
		local := intmat.Mul(mx, c.Access.F).Equal(ms)
		if res.LocalComms[c.ID] != local {
			t.Errorf("comm %d (%s in %s): LocalComms=%v but equality=%v",
				c.ID, c.Access.Array, c.Stmt.Name, res.LocalComms[c.ID], local)
		}
	}
}

func TestAlignExample1(t *testing.T) {
	res := mustAlign(t, affine.PaperExample1(), 2, Options{})
	checkInvariants(t, res)
	// The paper's outcome: 6 of the 8 graph communications local; the
	// residuals are exactly the reads of a through F3 (in S1) and F7
	// (in S2). F9 (not in graph) also stays non-local.
	if got := res.LocalCount(); got != 6 {
		t.Fatalf("local comms = %d, want 6", got)
	}
	resid := res.ResidualComms()
	if len(resid) != 3 {
		t.Fatalf("residuals = %d, want 3 (F3, F7, F9)", len(resid))
	}
	seen := map[string]int{}
	for _, c := range resid {
		seen[c.Stmt.Name]++
	}
	if seen["S1"] != 1 || seen["S2"] != 1 || seen["S3"] != 1 {
		t.Fatalf("residual distribution = %v", seen)
	}
	// Both weight-3 communications (F5 write of b in S2, F8 write of
	// c in S3) must be local.
	for _, c := range res.Graph.Comms {
		if c.Rank == 3 && !res.LocalComms[c.ID] {
			t.Fatalf("weight-3 comm %d not local", c.ID)
		}
	}
}

func TestAlignExample1Branching(t *testing.T) {
	res := mustAlign(t, affine.PaperExample1(), 2, Options{})
	if len(res.Branching) != 5 {
		t.Fatalf("branching size = %d, want 5", len(res.Branching))
	}
	w := 0
	for _, e := range res.Branching {
		w += e.Volume
	}
	if w != 12 {
		t.Fatalf("branching weight = %d, want 12", w)
	}
	// one connected component: a,b,c,S1,S2,S3 all linked
	comp := res.Component["a"]
	for _, name := range []string{"b", "c", "S1", "S2", "S3"} {
		if res.Component[name] != comp {
			t.Fatalf("%s in component %d, want %d", name, res.Component[name], comp)
		}
	}
}

func TestAlignExample5IsCommunicationFree(t *testing.T) {
	// Section 7.2: our local-first strategy finds a communication-free
	// mapping for Example 5.
	res := mustAlign(t, affine.Example5(), 2, Options{})
	checkInvariants(t, res)
	if len(res.ResidualComms()) != 0 {
		t.Fatalf("example5 should be communication-free, residuals: %v", res.ResidualComms())
	}
}

func TestAlignMatMulOneLocal(t *testing.T) {
	// matmul on a 2-D grid: only one of the three accesses can be
	// made local (they pairwise conflict), so 2 residuals remain.
	res := mustAlign(t, affine.MatMul(), 2, Options{})
	checkInvariants(t, res)
	if got := res.LocalCount(); got != 1 {
		t.Fatalf("local = %d, want 1", got)
	}
	if got := len(res.ResidualComms()); got != 2 {
		t.Fatalf("residual = %d, want 2", got)
	}
}

func TestAlignGauss(t *testing.T) {
	// Gaussian elimination: the write a(i,j) and read a(i,j) are the
	// same constraint (identity-weight cycle), so both become local;
	// a(i,k) and a(k,j) cannot both be local; a(k,k) is rank-deficient.
	res := mustAlign(t, affine.Gauss(), 2, Options{})
	checkInvariants(t, res)
	if got := res.LocalCount(); got != 2 {
		t.Fatalf("local = %d, want 2 (write+read of a(i,j)): got %d", 2, got)
	}
}

func TestAlignJacobiAllLocal(t *testing.T) {
	// all accesses share the same F (translations differ only in c):
	// everything aligns; residual communications are pure translations
	// handled by the offsets, so every comm is local in the non-local-
	// term sense.
	res := mustAlign(t, affine.Jacobi(), 2, Options{})
	checkInvariants(t, res)
	if got := len(res.ResidualComms()); got != 0 {
		t.Fatalf("jacobi residuals = %d, want 0", got)
	}
}

func TestAlignTranspose(t *testing.T) {
	res := mustAlign(t, affine.Transpose(), 2, Options{})
	checkInvariants(t, res)
	// r(i,j) = a(j,i): both accesses can be made local simultaneously
	// (M_r = Id, M_a = perm).
	if got := len(res.ResidualComms()); got != 0 {
		t.Fatalf("transpose residuals = %d, want 0", got)
	}
}

func TestAlignAblations(t *testing.T) {
	// unit weights: still a valid branching, possibly different
	// locality count; invariants must hold.
	res := mustAlign(t, affine.PaperExample1(), 2, Options{UnitWeights: true})
	checkInvariants(t, res)
	// no augmentation: the 5 branching communications are local by
	// construction; the final rescan may find more that hold by
	// accident of the chosen root, but never fewer.
	res2 := mustAlign(t, affine.PaperExample1(), 2, Options{NoAugmentation: true})
	checkInvariants(t, res2)
	if res2.LocalCount() < 5 {
		t.Fatalf("no-augmentation local = %d, want >= 5", res2.LocalCount())
	}
	full := mustAlign(t, affine.PaperExample1(), 2, Options{})
	if full.LocalCount() < res2.LocalCount() {
		t.Fatal("augmentation made things worse")
	}
}

func TestAlignVolumeWeightsMatter(t *testing.T) {
	// On Example 1 the volume weights force the two 3-D accesses to
	// be local; unit weights may pick differently, but never a larger
	// total volume than the volume-weighted run.
	vol := func(res *Result) int {
		v := 0
		for _, c := range res.Graph.Comms {
			if res.LocalComms[c.ID] {
				v += c.Rank
			}
		}
		return v
	}
	weighted := mustAlign(t, affine.PaperExample1(), 2, Options{})
	unit := mustAlign(t, affine.PaperExample1(), 2, Options{UnitWeights: true})
	if vol(weighted) < vol(unit) {
		t.Fatalf("volume-weighted local volume %d < unit-weighted %d", vol(weighted), vol(unit))
	}
}

func TestRotateComponent(t *testing.T) {
	res := mustAlign(t, affine.PaperExample1(), 2, Options{})
	before := res.LocalCount()
	v := intmat.New(2, 2, 1, 0, 1, 1)
	if err := res.RotateComponent("a", v); err != nil {
		t.Fatal(err)
	}
	// locality must be preserved
	for _, c := range res.Graph.Comms {
		ms := res.Alloc[c.Stmt.Name]
		mx := res.Alloc[c.Access.Array]
		local := intmat.Mul(mx, c.Access.F).Equal(ms)
		if res.LocalComms[c.ID] != local {
			t.Fatalf("rotation broke locality of comm %d", c.ID)
		}
	}
	if res.LocalCount() != before {
		t.Fatal("rotation changed local count")
	}
	// non-unimodular rotations must be rejected
	if err := res.RotateComponent("a", intmat.New(2, 2, 2, 0, 0, 1)); err == nil {
		t.Fatal("non-unimodular rotation accepted")
	}
	if err := res.RotateComponent("nope", v); err == nil {
		t.Fatal("unknown vertex accepted")
	}
}

func TestAlignAllExamples(t *testing.T) {
	for _, p := range affine.AllExamples() {
		res, err := Align(nil, p, 2, Options{})
		if err != nil {
			t.Errorf("%s: %v", p.Name, err)
			continue
		}
		checkInvariants(t, res)
	}
}

func TestAlignM1(t *testing.T) {
	// 1-D virtual architecture: more freedom, at least as many local
	// communications as m=2 on the matmul example.
	res1 := mustAlign(t, affine.MatMul(), 1, Options{})
	checkInvariants(t, res1)
	res2 := mustAlign(t, affine.MatMul(), 2, Options{})
	if res1.LocalCount() < res2.LocalCount() {
		t.Fatalf("m=1 local %d < m=2 local %d", res1.LocalCount(), res2.LocalCount())
	}
}
