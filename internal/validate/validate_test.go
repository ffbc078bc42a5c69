package validate

import (
	"math/rand"
	"testing"

	"repro/internal/affine"
	"repro/internal/alignment"
	"repro/internal/intmat"
)

func TestCheckAllExamples(t *testing.T) {
	// soundness: on every built-in example, every communication the
	// alignment claims local generates no irregular traffic on a
	// concrete 4^d domain.
	for _, p := range affine.AllExamples() {
		res, err := alignment.Align(nil, p, 2, alignment.Options{})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if err := Check(res, 4); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestRunCountsExample1(t *testing.T) {
	res, err := alignment.Align(nil, affine.PaperExample1(), 2, alignment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	traffic, err := Run(res, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(traffic) != 9 {
		t.Fatalf("traffic rows = %d, want 9", len(traffic))
	}
	locals, nonlocals := 0, 0
	for _, ct := range traffic {
		if ct.Instances == 0 {
			t.Fatal("no instances enumerated")
		}
		if res.LocalComms[ct.Comm.ID] {
			if !ct.Local() && !ct.Translation() {
				t.Fatalf("local comm %d has irregular traffic", ct.Comm.ID)
			}
			locals++
		} else {
			nonlocals++
		}
	}
	if locals != 6 || nonlocals != 3 {
		t.Fatalf("locals=%d nonlocals=%d", locals, nonlocals)
	}
	// the residual reads of a must actually move data
	for _, ct := range traffic {
		if !res.LocalComms[ct.Comm.ID] && ct.Comm.Rank >= 2 && ct.Transfers == 0 {
			t.Fatalf("residual comm %d moved no data on the test domain", ct.Comm.ID)
		}
	}
}

func TestJacobiTranslations(t *testing.T) {
	// Jacobi's shifted reads are local in the non-local-term sense:
	// on a concrete domain they appear as pure translations.
	res, err := alignment.Align(nil, affine.Jacobi(), 2, alignment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	traffic, err := Run(res, 4)
	if err != nil {
		t.Fatal(err)
	}
	translations := 0
	for _, ct := range traffic {
		if ct.Translation() {
			translations++
		}
		if ct.Transfers > 0 && ct.DistinctVectors > 1 {
			t.Fatalf("comm %d is not a translation: %d vectors", ct.Comm.ID, ct.DistinctVectors)
		}
	}
	if translations != 4 {
		t.Fatalf("translations = %d, want the 4 shifted reads", translations)
	}
}

// randomProgram builds a random valid affine program: a fuzz source
// for the whole alignment + validation stack.
func randomProgram(rng *rand.Rand) *affine.Program {
	p := &affine.Program{Name: "fuzz"}
	nArr := 1 + rng.Intn(3)
	for i := 0; i < nArr; i++ {
		p.AddArray(string(rune('a'+i)), 2+rng.Intn(2))
	}
	nStmt := 1 + rng.Intn(3)
	for i := 0; i < nStmt; i++ {
		depth := 2 + rng.Intn(2)
		names := []string{"i", "j", "k"}[:depth]
		s := p.NewStatement(string(rune('R'+i)), names...)
		nAcc := 1 + rng.Intn(3)
		for a := 0; a < nAcc; a++ {
			arr := p.Arrays[rng.Intn(len(p.Arrays))]
			f := intmat.RandMat(rng, arr.Dim, depth, 2)
			c := make([]int64, arr.Dim)
			for ci := range c {
				c[ci] = int64(rng.Intn(3) - 1)
			}
			if a == 0 && rng.Intn(2) == 0 {
				s.Write(arr.Name, f, c...)
			} else {
				s.Read(arr.Name, f, c...)
			}
		}
		if rng.Intn(3) == 0 {
			s.Seq(0)
		}
	}
	return p
}

func TestFuzzAlignmentSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(20240612))
	for trial := 0; trial < 150; trial++ {
		p := randomProgram(rng)
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: generator produced invalid program: %v", trial, err)
		}
		res, err := alignment.Align(nil, p, 2, alignment.Options{Seed: int64(trial)})
		if err != nil {
			// rank-starved random programs may legitimately fail to
			// instantiate; that is a reported error, not a panic.
			continue
		}
		if err := Check(res, 3); err != nil {
			t.Fatalf("trial %d: %v\nprogram:\n%s", trial, err, p)
		}
	}
}

func TestRunRejectsBadDomain(t *testing.T) {
	res, err := alignment.Align(nil, affine.MatMul(), 2, alignment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(res, 0); err == nil {
		t.Fatal("n=0 accepted")
	}
}
