package main

import (
	"context"
	"time"

	"repro/internal/collective"
	"repro/internal/compiled"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/intmat"
	"repro/internal/machine"
	"repro/internal/scenarios"
)

// replayer prices scenarios again through the public entry points of
// core, compiled, collective and machine, with a span around every
// call. It mirrors the engine's per-plan cost dispatch term for term,
// so the replayed model time must equal the engine's bit for bit: a
// difference means the trace did not measure the work the engine did.
type replayer struct {
	tr *tracer
	// pricer starts cold, as a fresh engine session's does.
	pricer *compiled.Pricer
	arts   map[string]*compiled.Artifact
	// messages counts the messages the pattern generators produced.
	messages int
}

func newReplayer(tr *tracer) *replayer {
	return &replayer{tr: tr, pricer: compiled.NewPricer(), arts: map[string]*compiled.Artifact{}}
}

// artifact compiles a scenario's nest once per plan key: core's traced
// entry point (which records its alignment/macro/decompose spans under
// the benchmark's span) and the compiled tier's structural compile.
func (rp *replayer) artifact(ctx context.Context, sc *scenarios.Scenario) *compiled.Artifact {
	key := sc.PlanKey()
	if a, ok := rp.arts[key]; ok {
		return a
	}
	ctx, root := rp.tr.root(ctx, "bench.replay.nest")
	defer root.End()
	rp.tr.call(ctx, "core.OptimizeCtx", func(ctx context.Context) {
		// The error is the artifact's too, and is checked through it.
		_, _ = core.OptimizeCtx(ctx, sc.Program, sc.M, sc.Opts)
	})
	var a *compiled.Artifact
	rp.tr.call(ctx, "compiled.Compile", func(context.Context) { a = compiled.Compile(sc) })
	rp.arts[key] = a
	return a
}

// point prices one scenario: the replayed model time through the
// layers' entry points, and the compiled tier's Artifact.Eval of the
// same point.
func (rp *replayer) point(ctx context.Context, sc *scenarios.Scenario) (replayed, evaluated float64) {
	a := rp.artifact(ctx, sc)
	ctx, root := rp.tr.root(ctx, "bench.replay.point")
	defer root.End()
	if a.Err == "" {
		for _, pl := range a.Plans {
			if pl.Class == core.Local {
				continue
			}
			if sc.Machine.Kind == scenarios.Mesh {
				replayed += rp.meshShape(ctx, sc.Machine, sc.Dist, sc.N, sc.ElemBytes, pl)
			} else {
				replayed += rp.fatTreeShape(ctx, sc.Machine, sc.N, sc.ElemBytes, pl)
			}
		}
	}
	rp.tr.call(ctx, "compiled.Artifact.Eval", func(context.Context) {
		evaluated = a.Eval(rp.pricer, sc.Machine, sc.Dist, sc.N, sc.ElemBytes).ModelTime
	})
	return replayed, evaluated
}

// standInGeneral is the engine's pattern for a general plan without a
// 2×2 data-flow matrix.
var standInGeneral = intmat.New(2, 2, 0, 1, 1, 0)

func is2x2(m *intmat.Mat) bool { return m != nil && m.Rows() == 2 && m.Cols() == 2 }

func (rp *replayer) gen(ctx context.Context, name string, fn func() []machine.Message) []machine.Message {
	var msgs []machine.Message
	rp.tr.call(ctx, name, func(context.Context) { msgs = fn() })
	rp.messages += len(msgs)
	return msgs
}

func (rp *replayer) permute(ctx context.Context, m *machine.Mesh2D, msgs []machine.Message, force string) float64 {
	var ch collective.Choice
	rp.tr.call(ctx, "collective.SelectPermute", func(context.Context) { ch = collective.SelectPermute(m, msgs, force) })
	return ch.Cost
}

func macroPattern(pl compiled.PlanShape) collective.Pattern {
	if pl.MacroReduction {
		return collective.Reduction
	}
	return collective.Broadcast
}

func (rp *replayer) meshShape(ctx context.Context, spec scenarios.MachineSpec, dist distrib.Dist2D, n int, eb int64, pl compiled.PlanShape) float64 {
	m := machine.DefaultMesh(spec.P, spec.Q)
	force := spec.Algo
	switch pl.Class {
	case core.MacroComm:
		p, bytes := macroPattern(pl), eb*int64(n)
		var dims []int
		for _, d := range pl.MacroDims {
			if d == 0 || d == 1 {
				dims = append(dims, d)
			}
		}
		var ch collective.Choice
		switch {
		case len(pl.MacroDims) == 1 && len(dims) == 1:
			rp.tr.call(ctx, "compiled.Pricer.SelectMeshDim", func(context.Context) { ch = rp.pricer.SelectMeshDim(m, p, dims[0], bytes, force) })
		case len(pl.MacroDims) >= 2 && len(dims) >= 1:
			rp.tr.call(ctx, "compiled.Pricer.SelectMeshMacro", func(context.Context) { ch = rp.pricer.SelectMeshMacro(m, p, dims, bytes, force) })
		default:
			rp.tr.call(ctx, "compiled.Pricer.SelectMesh", func(context.Context) { ch = rp.pricer.SelectMesh(m, p, bytes, force) })
		}
		return ch.Cost
	case core.Decomposed:
		if len(pl.Factors) > 0 && is2x2(pl.Factors[0]) {
			total := 0.0
			for idx := len(pl.Factors) - 1; idx >= 0; idx-- {
				msgs := rp.gen(ctx, "machine.AffineComm2D", func() []machine.Message {
					return machine.AffineComm2D(m, dist, pl.Factors[idx], nil, n, n, eb)
				})
				total += rp.permute(ctx, m, msgs, force)
			}
			return total
		}
		k := max(len(pl.Factors), 1)
		shift := rp.gen(ctx, "machine.AffineComm2D", func() []machine.Message {
			return machine.AffineComm2D(m, dist, intmat.Identity(2), []int64{1, 1}, n, n, eb)
		})
		return float64(k) * rp.permute(ctx, m, shift, force)
	default:
		t := pl.Dataflow
		if !is2x2(t) {
			t = standInGeneral
		}
		msgs := rp.gen(ctx, "machine.GeneralComm2D", func() []machine.Message {
			return machine.GeneralComm2D(m, dist, t, nil, n, n, eb)
		})
		var v float64
		rp.tr.call(ctx, "machine.Mesh2D.Time", func(context.Context) { v = m.Time(msgs) })
		return v
	}
}

func (rp *replayer) fatTreeShape(ctx context.Context, spec scenarios.MachineSpec, n int, eb int64, pl compiled.PlanShape) float64 {
	ft := machine.DefaultFatTree(spec.P)
	bytes, reps := eb, float64(n)
	if pl.Vectorizable {
		bytes, reps = eb*int64(n), 1
	}
	var v float64
	switch pl.Class {
	case core.MacroComm:
		var ch collective.Choice
		rp.tr.call(ctx, "collective.SelectFatTree", func(context.Context) { ch = collective.SelectFatTree(ft, macroPattern(pl), bytes, spec.Algo) })
		v = ch.Cost
	case core.Decomposed:
		k := float64(max(len(pl.Factors), 1))
		rp.tr.call(ctx, "machine.FatTree.Translation", func(context.Context) { v = k * ft.Translation(bytes) })
	default:
		rp.tr.call(ctx, "machine.FatTree.General", func(context.Context) { v = ft.General(1, bytes) })
	}
	if reps == 1 {
		return v
	}
	return reps * v
}

// fill reports the replay's per-layer totals.
func (rp *replayer) fill(lm layerMetrics) {
	ms := func(names ...string) float64 {
		var d time.Duration
		for _, n := range names {
			t, _ := rp.tr.total(n)
			d += t
		}
		return float64(d) / float64(time.Millisecond)
	}
	lm["machine.gen_ms"] = ms("machine.AffineComm2D", "machine.GeneralComm2D")
	lm["machine.contention_ms"] = ms("machine.Mesh2D.Time", "machine.FatTree.Translation", "machine.FatTree.General")
	lm["machine.messages"] = float64(rp.messages)
	lm["collective.permute_ms"] = ms("collective.SelectPermute")
	lm["collective.select_ms"] = ms("collective.SelectFatTree", "compiled.Pricer.SelectMesh",
		"compiled.Pricer.SelectMeshDim", "compiled.Pricer.SelectMeshMacro")
	lm["compiled.compile_ms"] = ms("compiled.Compile")
	if d, n := rp.tr.total("compiled.Artifact.Eval"); n > 0 {
		lm["compiled.eval_us"] = float64(d) / float64(time.Microsecond) / float64(n)
	}
	lm["core.optimize_ms"] = ms("core.OptimizeCtx")
}
