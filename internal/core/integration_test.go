package core

import (
	"testing"

	"repro/internal/affine"
	"repro/internal/alignment"
	"repro/internal/intmat"
	"repro/internal/nestlang"
	"repro/internal/validate"
)

// End-to-end: DSL source → parser → two-step heuristic → concrete
// validation of the mapping on an enumerated domain.

const gaussSrc = `
# Gaussian elimination update
nest gauss {
  array a[2]
  loop (k, i, j) seq(k) {
    S: a[i, j] = g(a[i, j], a[i, k], a[k, j])
  }
}
`

const sweepSrc = `
nest sweep {
  array a[2]
  array b[2]
  array c[3]
  loop (i, j) {
    S1: b[j, i] = a[i, j]
  }
  loop (i, j, k) seq(k) {
    S2: c[i, j, k] = b[i, j]
  }
}
`

func TestDSLGaussPipeline(t *testing.T) {
	prog := nestlang.MustParse(gaussSrc)
	res, err := Optimize(prog, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkConsistency(t, res)
	// write+read of a(i,j) local; a(i,k) and a(k,j) cannot both be;
	// a(k,k) is rank-deficient.
	c := res.Counts()
	if c[Local] < 2 {
		t.Fatalf("local = %d, want >= 2", c[Local])
	}
	if err := validate.Check(res.Align, 4); err != nil {
		t.Fatal(err)
	}
}

func TestDSLSweepPipeline(t *testing.T) {
	prog := nestlang.MustParse(sweepSrc)
	res, err := Optimize(prog, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkConsistency(t, res)
	if err := validate.Check(res.Align, 3); err != nil {
		t.Fatal(err)
	}
	// the b[i,j] read in S2 repeats over k: either local or a
	// detected macro/vectorizable communication, never plain general
	for _, pl := range res.Plans {
		if pl.Comm.Stmt.Name == "S2" && pl.Comm.Access.Array == "b" {
			if pl.Class == General {
				t.Fatalf("b read in S2 left general:\n%s", res.Report())
			}
		}
	}
}

func TestValidateAfterRotation(t *testing.T) {
	// the motivating example applies a unimodular rotation in step 2a;
	// validation must still hold afterwards (rotation preserves the
	// whole communication structure).
	res, err := Optimize(affine.PaperExample1(), 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := validate.Check(res.Align, 4); err != nil {
		t.Fatal(err)
	}
}

func TestThreeDimensionalTarget(t *testing.T) {
	// m = 3 exercise: 3-D arrays on a 3-D virtual grid with a skewed
	// residual whose 3×3 data-flow matrix decomposes into elementary
	// factors (the Cray T3D case).
	p := &affine.Program{Name: "m3"}
	p.AddArray("a", 3)
	p.AddArray("r", 3)
	f := intmat.New(3, 3,
		1, 2, 1,
		2, 5, 3,
		1, 3, 3) // det 1
	p.NewStatement("S", "i", "j", "k").
		Write("r", intmat.Identity(3)).
		Read("a", intmat.Identity(3)).
		Read("a", f)
	res, err := Optimize(p, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkConsistency(t, res)
	var dec *Plan
	for i := range res.Plans {
		if res.Plans[i].Class == Decomposed && len(res.Plans[i].Factors) > 0 {
			dec = &res.Plans[i]
		}
	}
	if dec == nil {
		t.Fatalf("no 3-D decomposition:\n%s", res.Report())
	}
	if dec.Dataflow.Rows() != 3 {
		t.Fatalf("dataflow is %dx%d", dec.Dataflow.Rows(), dec.Dataflow.Cols())
	}
	if !intmat.MulAll(dec.Factors...).Equal(dec.Dataflow) {
		t.Fatal("3-D factors do not multiply back")
	}
}

func TestMacroSurvivesPipelineOrder(t *testing.T) {
	// regression guard: the decomposition step must not rotate a
	// component whose broadcast was already axis-aligned.
	res, err := Optimize(affine.PaperExample1(), 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range res.Plans {
		if pl.Class == MacroComm && pl.Macro.Partial() {
			if !pl.Macro.AxisParallel() {
				t.Fatal("macro lost its axis alignment")
			}
		}
	}
	// and alignment-level invariants still hold
	if _, err := alignment.Align(nil, affine.PaperExample1(), 2, alignment.Options{}); err != nil {
		t.Fatal(err)
	}
}
