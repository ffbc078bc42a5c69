package baselines

import (
	"testing"

	"repro/internal/affine"
	"repro/internal/alignment"
)

func TestExample5OursVsPlatonoff(t *testing.T) {
	// Section 7.2: the macro-first strategy preserves the broadcast
	// and keeps a residual communication; the local-first strategy is
	// communication-free on the same nest.
	p := affine.Example5()

	pl, err := Platonoff(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Preserved) != 1 {
		t.Fatalf("preserved = %v, want exactly the b read", pl.Preserved)
	}
	if pl.ResidualCount() != 1 {
		t.Fatalf("platonoff residuals = %d, want 1 (the preserved broadcast)", pl.ResidualCount())
	}

	ours, err := alignment.Align(nil, p, 2, alignment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ours.ResidualComms()) != 0 {
		t.Fatal("local-first mapping should be communication-free")
	}
}

func TestFeautrierGreedyExample1(t *testing.T) {
	out, err := FeautrierGreedy(affine.PaperExample1(), 2)
	if err != nil {
		t.Fatal(err)
	}
	// greedy must zero out a consistent subset; on Example 1 it can
	// reach at most the branching+augmentation optimum of 6.
	if out.LocalCount() < 4 || out.LocalCount() > 6 {
		t.Fatalf("greedy local = %d, want 4..6", out.LocalCount())
	}
	// both volume-3 communications must be local (processed first)
	for _, c := range out.Graph.Comms {
		if c.Rank == 3 && !out.LocalComms[c.ID] {
			t.Fatal("greedy skipped a volume-3 communication")
		}
	}
}

func TestGreedyNeverBeatsEdmondsOnVolume(t *testing.T) {
	// the volume made local by the greedy heuristic is never larger
	// than the branching-based alignment's on our examples.
	for _, p := range affine.AllExamples() {
		g, err := FeautrierGreedy(p, 2)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		a, err := alignment.Align(nil, p, 2, alignment.Options{})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		gv, av := 0, 0
		for _, c := range g.Graph.Comms {
			if g.LocalComms[c.ID] {
				gv += c.Rank
			}
		}
		for _, c := range a.Graph.Comms {
			if a.LocalComms[c.ID] {
				av += c.Rank
			}
		}
		if gv > av {
			t.Errorf("%s: greedy volume %d > aligned volume %d", p.Name, gv, av)
		}
	}
}

func TestPlatonoffPreservesGaussBroadcasts(t *testing.T) {
	out, err := Platonoff(affine.Gauss(), 2)
	if err != nil {
		t.Fatal(err)
	}
	// the pivot-row and pivot-column reads both carry broadcasts in
	// the initial code (kernels e_j and e_i within ker θ).
	if len(out.Preserved) < 2 {
		t.Fatalf("preserved = %d, want >= 2", len(out.Preserved))
	}
	for _, id := range out.Preserved {
		if out.LocalComms[id] {
			t.Fatal("preserved broadcast was made local")
		}
	}
}

func TestOutcomeCounts(t *testing.T) {
	out, err := FeautrierGreedy(affine.Transpose(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if out.LocalCount()+out.ResidualCount() != len(out.Graph.Comms) {
		t.Fatal("counts inconsistent")
	}
	if out.ResidualCount() != 0 {
		t.Fatalf("transpose should be fully local under greedy too, residual=%d", out.ResidualCount())
	}
}
