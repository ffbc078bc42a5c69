// Package compiled factors one full optimization run into a
// structural phase done once per nest and a cheap numeric evaluator
// run once per machine point. The structural phase (Compile) pays for
// alignment, Hermite forms and plan construction through core; its
// result — an Artifact — is the machine-independent projection of the
// plans. The numeric phase (Artifact.Eval) prices those plans on a
// concrete machine instance, with mesh collective selection served
// from compiled collective.MeshTemplates cached in a Pricer, so
// sweeping a lattice of (P, Q, bytes) points costs one structural
// compile plus one cheap arithmetic evaluation per point instead of
// one cold optimize each.
//
// The package is the engine's cost model: PlanTime is the one
// per-plan pricing dispatch, and the engine prices every scenario
// through it (see EvalPlans). For any scenario, Eval therefore
// returns bit-identical model time, class counts and collective
// summaries to running the scenario through the engine.
package compiled

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/intmat"
	"repro/internal/macro"
	"repro/internal/scenarios"
)

// PlanShape is the machine-independent projection of one core.Plan:
// exactly the fields the cost model reads. The engine's plan tier
// holds plans in this form whatever tier they came from, so an
// artifact built from either a fresh optimization or a stored plan
// entry evaluates identically.
type PlanShape struct {
	Class          core.Class
	Vectorizable   bool
	MacroReduction bool
	// MacroDims lists the virtual grid axes of a partial axis-parallel
	// macro-communication (nil: machine-spanning scheduling).
	MacroDims []int
	Factors   []*intmat.Mat
	Dataflow  *intmat.Mat
}

// Artifact is the compiled structural form of one optimization
// problem: the plan shapes of its nest, reusable across every
// machine, distribution, size and payload. Artifacts are read-only
// after construction and safe for concurrent Eval.
type Artifact struct {
	// Key is the scenario plan key the artifact was compiled from
	// (scenarios.Scenario.PlanKey) — machine-independent by
	// construction.
	Key string
	// Err is the optimization error ("" on success); an errored
	// artifact evaluates to the zero Point at every machine.
	Err   string
	Plans []PlanShape
}

// New assembles an artifact from already-projected plan shapes (the
// engine uses this to convert a cached plan entry without re-running
// the heuristic).
func New(key string, plans []PlanShape, errMsg string) *Artifact {
	return &Artifact{Key: key, Err: errMsg, Plans: plans}
}

// Compile runs the structural phase for a scenario's optimization
// problem: the full two-step heuristic, projected down to plan
// shapes. Only the nest-side fields of sc are read (Program, M,
// Opts); machine, distribution and size belong to Eval.
func Compile(sc *scenarios.Scenario) *Artifact {
	a := &Artifact{Key: sc.PlanKey()}
	res, err := core.Optimize(sc.Program, sc.M, sc.Opts)
	if err != nil {
		a.Err = err.Error()
		return a
	}
	a.Plans = Shapes(res.Plans)
	return a
}

// Shapes projects optimized plans onto their plan shapes — the one
// core.Plan → PlanShape projection, shared by Compile and the
// engine's plan tier.
func Shapes(plans []core.Plan) []PlanShape {
	shapes := make([]PlanShape, 0, len(plans))
	for _, pl := range plans {
		shapes = append(shapes, PlanShape{
			Class:          pl.Class,
			Vectorizable:   pl.Vectorizable,
			MacroReduction: pl.Macro != nil && pl.Macro.Kind == macro.Reduction,
			MacroDims:      macroGridDims(pl.Macro),
			Factors:        pl.Factors,
			Dataflow:       pl.Dataflow,
		})
	}
	return shapes
}

// macroGridDims extracts the grid axes of a partial axis-parallel
// macro-communication — the non-zero rows of its direction matrix, in
// row order (sorted by construction). Total, hidden and non-axis
// macros report nil (machine-spanning scheduling).
func macroGridDims(mc *macro.Macro) []int {
	if mc == nil || !mc.Partial() || !mc.AxisParallel() {
		return nil
	}
	d := mc.Directions
	var dims []int
	for i := 0; i < d.Rows(); i++ {
		for j := 0; j < d.Cols(); j++ {
			if d.At(i, j) != 0 {
				dims = append(dims, i)
				break
			}
		}
	}
	return dims
}

// formatCollectives renders selector choices deterministically:
// sorted "pattern=algorithm" terms, "*n" multiplicities past one.
func formatCollectives(counts map[string]int) string {
	if len(counts) == 0 {
		return ""
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		if counts[k] > 1 {
			fmt.Fprintf(&b, "*%d", counts[k])
		}
	}
	return b.String()
}
