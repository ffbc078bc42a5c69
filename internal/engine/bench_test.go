package engine

import (
	"context"
	"testing"

	"repro/internal/compiled"
	"repro/internal/scenarios"
)

// benchLatticeGrid is the 64-point capacity-planning lattice the
// compiled-tier benchmarks sweep: 4 mesh geometries × 16 payloads,
// the bytes-heavy shape of a switch-point scan (where along the
// payload axis does the chosen schedule flip?).
func benchLatticeGrid(b *testing.B) *compiled.Grid {
	g, err := compiled.ParseGrid("mesh{4..32}x8:bytes=1k..32M")
	if err != nil {
		b.Fatal(err)
	}
	if g.Points() != 64 {
		b.Fatalf("lattice grid has %d points, want 64", g.Points())
	}
	return g
}

// benchLatticeNest is the deep macro-dominated nest the lattice
// benchmarks sweep: its plans are local and macro-communication
// shapes only, so the compiled evaluator prices each lattice point
// with pure template arithmetic — the capacity-planning shape the
// compiled tier exists for. (Decomposed/general-heavy nests pay the
// same pattern simulation on both paths; they are covered by the
// equivalence tests, not the speedup benchmark.)
func benchLatticeNest() scenarios.Scenario {
	suite := scenarios.Generate(scenarios.Config{Seed: 42, Random: 1, NoExamples: true, Deep: 6, M: 3})
	for i := range suite {
		if suite[i].Program.Name == "deep005" {
			return suite[i]
		}
	}
	panic("benchmark nest deep005 missing from generated suite")
}

// BenchmarkCompiledLattice measures the compiled path over the
// 64-point lattice: one structural compile plus 64 cheap template
// evaluations per iteration (fresh pricer each iteration, so template
// compilation is charged too). Compare against
// BenchmarkUncompiledLattice — the ratio is the compile-once/
// evaluate-many win the compiled tier exists for.
func BenchmarkCompiledLattice(b *testing.B) {
	g := benchLatticeGrid(b)
	base := benchLatticeNest()
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr := compiled.NewPricer()
		art := compiled.Compile(&base)
		if art.Err != "" {
			b.Fatal(art.Err)
		}
		for _, ms := range g.Machines {
			for _, eb := range g.Bytes {
				pt := art.Eval(pr, ms, base.Dist, base.N, eb)
				sink += pt.ModelTime
			}
		}
	}
	b.ReportMetric(sink, "model-µs")
}

// BenchmarkUncompiledLattice is the same 64-point sweep without the
// compiled tier: every lattice point pays a full cold optimization
// and prices through the nil Pricer (a one-shot template per
// selection), exactly what a -no-cache batch of 64 scenarios would.
func BenchmarkUncompiledLattice(b *testing.B) {
	g := benchLatticeGrid(b)
	base := benchLatticeNest()
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ms := range g.Machines {
			for _, eb := range g.Bytes {
				sc := base
				sc.Machine = ms
				sc.ElemBytes = eb
				ent := optimizeCtx(context.Background(), &sc, nil)
				if ent.err != "" {
					b.Fatal(ent.err)
				}
				pt := compiled.EvalPlans(context.Background(), nil, ent.plans, sc.Machine, sc.Dist, sc.N, sc.ElemBytes, nil)
				sink += pt.ModelTime
			}
		}
	}
	b.ReportMetric(sink, "model-µs")
}

// BenchmarkCompiledCompile isolates the structural phase: one full
// compile of the benchmark nest.
func BenchmarkCompiledCompile(b *testing.B) {
	base := benchLatticeNest()
	for i := 0; i < b.N; i++ {
		if art := compiled.Compile(&base); art.Err != "" {
			b.Fatal(art.Err)
		}
	}
}

// BenchmarkCompiledEvalWarm isolates the numeric phase: pricing one
// lattice point against a warm template cache — the steady-state cost
// of widening a sweep by one point.
func BenchmarkCompiledEvalWarm(b *testing.B) {
	g := benchLatticeGrid(b)
	base := benchLatticeNest()
	pr := compiled.NewPricer()
	art := compiled.Compile(&base)
	if art.Err != "" {
		b.Fatal(art.Err)
	}
	for _, ms := range g.Machines {
		for _, eb := range g.Bytes {
			art.Eval(pr, ms, base.Dist, base.N, eb) // warm every template
		}
	}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		pt := art.Eval(pr, g.Machines[i%len(g.Machines)], base.Dist, base.N, g.Bytes[i%len(g.Bytes)])
		sink += pt.ModelTime
	}
	b.ReportMetric(sink, "model-µs")
}
