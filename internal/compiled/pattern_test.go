package compiled_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/collective"
	"repro/internal/compiled"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/intmat"
	"repro/internal/machine"
	"repro/internal/scenarios"
)

// meshPlans are one plan of each mesh-pattern kind PlanTime prices: a
// general plan, one without a 2×2 data flow (the transpose stand-in),
// a two-phase decomposition and a pure translation.
var meshPlans = []struct {
	name string
	pl   compiled.PlanShape
}{
	{"general", compiled.PlanShape{Class: core.General, Dataflow: intmat.New(2, 2, 1, 2, 3, 7)}},
	{"general-standin", compiled.PlanShape{Class: core.General}},
	{"decomposed", compiled.PlanShape{Class: core.Decomposed,
		Factors: []*intmat.Mat{intmat.New(2, 2, 1, 0, 3, 1), intmat.New(2, 2, 1, 2, 0, 1)}}},
	{"translation", compiled.PlanShape{Class: core.Decomposed}},
}

// referencePlanTime prices a mesh-pattern plan the uncompiled way:
// Mesh2D.Time over the element-wise general pattern, SelectPermute
// over each phase's aggregated pattern.
func referencePlanTime(m *machine.Mesh2D, dist distrib.Dist2D, n int, eb int64, pl compiled.PlanShape, force string) float64 {
	if pl.Class == core.General {
		t := pl.Dataflow
		if t == nil {
			t = intmat.New(2, 2, 0, 1, 1, 0)
		}
		return m.Time(machine.GeneralComm2D(m, dist, t, nil, n, n, eb))
	}
	if len(pl.Factors) == 0 {
		return collective.SelectPermute(m, machine.AffineComm2D(m, dist, intmat.Identity(2), []int64{1, 1}, n, n, eb), force).Cost
	}
	total := 0.0
	for idx := len(pl.Factors) - 1; idx >= 0; idx-- {
		total += collective.SelectPermute(m, machine.AffineComm2D(m, dist, pl.Factors[idx], nil, n, n, eb), force).Cost
	}
	return total
}

// TestPlanTimeMeshPatterns: general and decomposed plans priced
// through one shared Pricer (so a key that misses a pattern input
// would serve the wrong template) and through the nil Pricer cost
// exactly what the uncompiled reference charges, across geometries,
// distributions, grids, payloads and forces. The pattern tier holds
// one template per miss and leaves the selection counters alone.
func TestPlanTimeMeshPatterns(t *testing.T) {
	dists := []distrib.Dist2D{
		{D0: distrib.Block{}, D1: distrib.Block{}},
		{D0: distrib.Cyclic{}, D1: distrib.Cyclic{}},
		{D0: distrib.Grouped{K: 2}, D1: distrib.Block{}},
	}
	pr := compiled.NewPricer()
	for _, sh := range [][2]int{{4, 4}, {8, 8}, {16, 2}} {
		m := machine.DefaultMesh(sh[0], sh[1])
		for _, force := range []string{"", "staggered", "flat"} {
			spec := scenarios.MachineSpec{Kind: scenarios.Mesh, P: sh[0], Q: sh[1], Algo: force}
			for _, dist := range dists {
				for _, n := range []int{8, 16} {
					for _, eb := range []int64{0, 8, 4096} {
						for _, mp := range meshPlans {
							want := referencePlanTime(m, dist, n, eb, mp.pl, force)
							for _, p := range []*compiled.Pricer{pr, nil} {
								got, _ := compiled.PlanTime(context.Background(), p, spec, dist, n, eb, mp.pl, nil)
								if got != want {
									t.Fatalf("%s %s %s n=%d eb=%d (pricer %v): PlanTime %v, reference %v",
										spec, mp.name, dist.Name(), n, eb, p != nil, got, want)
								}
							}
						}
					}
				}
			}
		}
	}
	st := pr.Stats()
	if st.Patterns == 0 || st.PatternMisses != uint64(st.Patterns) || st.PatternHits == 0 {
		t.Errorf("pattern tier inconsistent: %+v", st)
	}
	if st.Templates != 0 || st.TemplateHits+st.TemplateMisses != 0 || st.Evals != 0 {
		t.Errorf("pattern pricing moved the selection counters: %+v", st)
	}
}

// BenchmarkPlanTimeMesh prices one general and one decomposed plan on
// a square and a skewed mesh, through a warm Pricer (template folds
// only) and through the nil Pricer (one-shot compilation per call).
func BenchmarkPlanTimeMesh(b *testing.B) {
	dist := distrib.Dist2D{D0: distrib.Cyclic{}, D1: distrib.Block{}}
	for _, mp := range meshPlans {
		if mp.name != "general" && mp.name != "decomposed" {
			continue
		}
		for _, sh := range [][2]int{{16, 16}, {64, 2}} {
			spec := scenarios.MachineSpec{Kind: scenarios.Mesh, P: sh[0], Q: sh[1]}
			for _, warm := range []bool{true, false} {
				var pr *compiled.Pricer
				mode := "nil"
				if warm {
					pr, mode = compiled.NewPricer(), "warm"
					compiled.PlanTime(context.Background(), pr, spec, dist, 32, 64, mp.pl, nil)
				}
				b.Run(fmt.Sprintf("%s/%s/%s", mp.name, spec, mode), func(b *testing.B) {
					var t float64
					for i := 0; i < b.N; i++ {
						t, _ = compiled.PlanTime(context.Background(), pr, spec, dist, 32, 64, mp.pl, nil)
					}
					b.ReportMetric(t, "model-µs")
				})
			}
		}
	}
}
