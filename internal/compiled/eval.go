package compiled

import (
	"context"
	"time"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/intmat"
	"repro/internal/machine"
	"repro/internal/scenarios"
	"repro/internal/trace"
)

// Point is the evaluation of one artifact at one machine point: the
// same aggregate the engine reports per scenario (class counts, model
// time, vectorizable count, collective summary), minus the run-side
// bookkeeping.
type Point struct {
	// Classes counts the nest's communications per core.Class.
	Classes [4]int
	// ModelTime is the modeled execution time (µs) of one sweep of all
	// residual communications.
	ModelTime float64
	// Vectorizable counts plans satisfying the Section 4.5 condition.
	Vectorizable int
	// Collectives is the deterministic collective summary:
	// "pattern=algorithm" terms with multiplicities, sorted and
	// comma-joined (e.g. "broadcast=bisection,shift=direct*3"); empty
	// when no collective operation was priced.
	Collectives string
}

// Selections accumulates the collective selections of one pricing
// walk: the wall time spent selecting and the outcomes of the Pricer's
// template cache. A selection with no cache behind it — closed-form
// fat-tree selection, or any selection through the nil Pricer — counts
// as neither a hit nor a miss. The nil *Selections records nothing.
type Selections struct {
	Dur          time.Duration
	Hits, Misses int
}

// Eval prices the artifact's plans at one machine point through
// PlanTime, the cost model the engine prices every scenario with, so
// the Point is bit-identical to optimizing the corresponding scenario.
// An errored artifact returns the zero Point.
func (a *Artifact) Eval(pr *Pricer, spec scenarios.MachineSpec, dist distrib.Dist2D, n int, elemBytes int64) Point {
	if a.Err != "" {
		return Point{}
	}
	return EvalPlans(context.Background(), pr, a.Plans, spec, dist, n, elemBytes, nil)
}

// EvalPlans prices a plan list at one machine point: PlanTime per plan,
// aggregated into class counts, total model time, the vectorizable
// count and the collective summary. Selections feed sel.
func EvalPlans(ctx context.Context, pr *Pricer, plans []PlanShape, spec scenarios.MachineSpec, dist distrib.Dist2D, n int, elemBytes int64, sel *Selections) Point {
	var pt Point
	counts := map[string]int{}
	for _, pl := range plans {
		pt.Classes[pl.Class]++
		if pl.Vectorizable {
			pt.Vectorizable++
		}
		t, choices := PlanTime(ctx, pr, spec, dist, n, elemBytes, pl, sel)
		pt.ModelTime += t
		for _, ch := range choices {
			counts[ch.String()]++
		}
	}
	pt.Collectives = formatCollectives(counts)
	return pt
}

// PlanTime costs one communication plan on the machine point, in
// model-µs, and reports which collective algorithms the cost-driven
// selector chose for it (none for plans that involve no collective
// operation). It is the only per-plan cost model: the engine prices
// scenarios through it, and Artifact.Eval prices lattice points
// through it.
//
// Fat tree (CM-5-like): macro-communications go through the
// collective selector, which keeps the hardware combining network as
// a fixed-cost algorithm next to software trees over the data
// network. The per-processor payload is n elements of elemBytes; a
// vectorizable plan (Section 4.5) moves it in one operation, a
// non-vectorizable one pays n element-wise operations.
//
// Mesh (Paragon-like): macro-communications are selected through the
// Pricer's compiled templates (or one-shot templates for the nil
// Pricer): an axis-parallel p=1 macro runs concurrent per-line trees
// along its grid dimension, a p ≥ 2 one competes per-plane two-phase
// schedules against the machine-spanning execution, and a total one
// spans the machine. Decomposed plans execute each phase's aggregated
// pattern on the n×n virtual grid under the distribution with the
// cheapest permute algorithm. A general plan runs its element-wise
// pattern directly — every element its own message, one
// contention-scheduled round; one without a 2×2 data-flow matrix uses
// the transpose permutation as a deterministic stand-in. Both are
// priced as folds of the Pricer's compiled pattern templates (one-shot
// templates for the nil Pricer): the contention packing of a pattern
// reads only message endpoints, so it is compiled once per pattern and
// re-priced at any element size, and no evaluation builds a message
// list.
//
// The machine spec may pin the selection to one named algorithm (the
// "mesh8x8:flat" grammar). Each collective selection records a
// "collective.select" span under ctx's active trace, annotated with
// its template-cache outcome ("hit", "miss" or "off"), and feeds sel.
func PlanTime(ctx context.Context, pr *Pricer, spec scenarios.MachineSpec, dist distrib.Dist2D, n int, elemBytes int64, pl PlanShape, sel *Selections) (float64, []collective.Choice) {
	switch {
	case pl.Class == core.Local:
		return 0, nil
	case spec.Kind == scenarios.Mesh:
		return meshShapeTime(ctx, pr, spec, dist, n, elemBytes, pl, sel)
	}
	return fatTreeShapeTime(ctx, spec, n, elemBytes, pl, sel)
}

// observe runs one collective selection, timing it into sel and — under
// an active trace — recording its "collective.select" span. pick
// returns the choice and its cache outcome.
func (sel *Selections) observe(ctx context.Context, p collective.Pattern, pick func() (collective.Choice, string)) collective.Choice {
	_, sp := trace.StartSpan(ctx, "collective.select")
	if sel == nil && sp == nil {
		ch, _ := pick()
		return ch
	}
	t0 := time.Now()
	ch, memo := pick()
	if sel != nil {
		sel.Dur += time.Since(t0)
		switch memo {
		case "hit":
			sel.Hits++
		case "miss":
			sel.Misses++
		}
	}
	if sp != nil {
		sp.Set("memo", memo).Set("pattern", p.String()).Set("choice", ch.String()).End()
	}
	return ch
}

func macroPattern(pl PlanShape) collective.Pattern {
	if pl.MacroReduction {
		return collective.Reduction
	}
	return collective.Broadcast
}

func fatTreeShapeTime(ctx context.Context, spec scenarios.MachineSpec, n int, eb int64, pl PlanShape, sel *Selections) (float64, []collective.Choice) {
	ft := machine.DefaultFatTree(spec.P)
	bytes, reps := eb, float64(n)
	if pl.Vectorizable {
		bytes, reps = eb*int64(n), 1
	}
	switch pl.Class {
	case core.MacroComm:
		p := macroPattern(pl)
		ch := sel.observe(ctx, p, func() (collective.Choice, string) {
			return collective.SelectFatTree(ft, p, bytes, spec.Algo), "off"
		})
		return reps * ch.Cost, []collective.Choice{ch}
	case core.Decomposed:
		k := max(len(pl.Factors), 1) // no factors: a pure translation
		return reps * (float64(k) * ft.Translation(bytes)), nil
	default:
		return reps * ft.General(1, bytes), nil
	}
}

// standInGeneral is the deterministic pattern used when a general
// plan has no usable 2×2 data-flow matrix.
var standInGeneral = intmat.New(2, 2, 0, 1, 1, 0)

func meshShapeTime(ctx context.Context, pr *Pricer, spec scenarios.MachineSpec, dist distrib.Dist2D, n int, eb int64, pl PlanShape, sel *Selections) (float64, []collective.Choice) {
	m := machine.DefaultMesh(spec.P, spec.Q)
	force := spec.Algo
	switch pl.Class {
	case core.MacroComm:
		p := macroPattern(pl)
		ch := sel.observe(ctx, p, func() (collective.Choice, string) {
			return pr.selectMacro(m, p, pl.MacroDims, eb*int64(n), force)
		})
		return ch.Cost, []collective.Choice{ch}
	case core.Decomposed:
		key := patternKey{p: m.P, q: m.Q, dist: dist, n: n, force: force}
		if len(pl.Factors) > 0 && is2x2(pl.Factors[0]) {
			// Successive phases, right to left as in the matrix
			// product; each phase's aggregated pattern runs under the
			// cheapest permute execution.
			total := 0.0
			var choices []collective.Choice
			for idx := len(pl.Factors) - 1; idx >= 0; idx-- {
				key.t = mat2(pl.Factors[idx])
				ch := pr.selectPattern(m, key, eb)
				total += ch.Cost
				choices = append(choices, ch)
			}
			return total, choices
		}
		// A pure translation (no factors), or factors outside the 2-D
		// simulator: unit-shift phases.
		k := max(len(pl.Factors), 1)
		key.t, key.off = [4]int64{1, 0, 0, 1}, [2]int64{1, 1}
		ch := pr.selectPattern(m, key, eb)
		choices := make([]collective.Choice, k)
		for i := range choices {
			choices[i] = ch
		}
		return float64(k) * ch.Cost, choices
	default: // General
		t := pl.Dataflow
		if !is2x2(t) {
			t = standInGeneral
		}
		// The direct execution: every element its own message, packed
		// in one contention-scheduled round.
		key := patternKey{p: m.P, q: m.Q, dist: dist, t: mat2(t), n: n, elementwise: true, force: "direct"}
		return pr.selectPattern(m, key, eb).Cost, nil
	}
}

func is2x2(m *intmat.Mat) bool { return m != nil && m.Rows() == 2 && m.Cols() == 2 }

// mat2 flattens a 2×2 data-flow matrix row-major for a patternKey.
func mat2(t *intmat.Mat) [4]int64 {
	if !is2x2(t) {
		panic("compiled: mesh pattern needs a 2x2 data-flow matrix")
	}
	return [4]int64{t.At(0, 0), t.At(0, 1), t.At(1, 0), t.At(1, 1)}
}
