// Package experiments regenerates every table and figure of the
// paper's evaluation on the machine models of package machine. Each
// experiment returns structured rows plus a formatted table, so the
// same code backs cmd/paperfigs, the shape tests and the benchmark
// harness.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/affine"
	"repro/internal/alignment"
	"repro/internal/baselines"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/engine"
	"repro/internal/intmat"
	"repro/internal/machine"
	"repro/internal/scenarios"
)

// Table1Row is one data-movement measurement of Table 1.
type Table1Row struct {
	Name  string
	Time  float64 // model µs
	Ratio float64 // normalized to the reduction time
}

// Table1 reproduces Table 1: execution-time ratios of the four data
// movements on a CM-5-like machine with p processors and `bytes` of
// payload per processor.
func Table1(p int, bytes int64) []Table1Row {
	f := machine.DefaultFatTree(p)
	red, bc, tr, gen := f.Table1(bytes)
	rows := []Table1Row{
		{Name: "Reduction", Time: red},
		{Name: "Broadcast", Time: bc},
		{Name: "Translation", Time: tr},
		{Name: "General communication", Time: gen},
	}
	for i := range rows {
		rows[i].Ratio = rows[i].Time / red
	}
	return rows
}

// FormatTable1 renders Table 1 like the paper (ratios).
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: data movements on the CM-5-like model (ratios)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-22s %8.1f µs   ratio %6.1f\n", r.Name, r.Time, r.Ratio)
	}
	return b.String()
}

// Table2Result holds the four execution times of Table 2.
type Table2Result struct {
	Direct, L, U, LU float64
	// Ratios normalized to L (the cheapest single phase), matching
	// the paper's presentation of execution ratios.
	DirectRatio, LRatio, URatio, LURatio float64
}

// Table2 reproduces Table 2: executing T = [[1,2],[3,7]] directly
// versus decomposed as L·U on a p×q Paragon-like mesh with an n×n
// virtual grid, CYCLIC distribution and elemBytes per virtual
// processor.
func Table2(p, q, n int, elemBytes int64) Table2Result {
	m := machine.DefaultMesh(p, q)
	cyc := distrib.Dist2D{D0: distrib.Cyclic{}, D1: distrib.Cyclic{}}
	T := intmat.New(2, 2, 1, 2, 3, 7)
	L := intmat.New(2, 2, 1, 0, 3, 1)
	U := intmat.New(2, 2, 1, 2, 0, 1)
	res := Table2Result{
		Direct: m.Time(machine.GeneralComm2D(m, cyc, T, nil, n, n, elemBytes)),
		L:      m.Time(machine.AffineComm2D(m, cyc, L, nil, n, n, elemBytes)),
		U:      m.Time(machine.AffineComm2D(m, cyc, U, nil, n, n, elemBytes)),
	}
	res.LU = res.L + res.U
	base := res.L
	res.DirectRatio = res.Direct / base
	res.LRatio = 1
	res.URatio = res.U / base
	res.LURatio = res.LU / base
	return res
}

// FormatTable2 renders Table 2.
func FormatTable2(r Table2Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: decomposing T=[[1,2],[3,7]] on the Paragon-like mesh (CYCLIC)\n")
	fmt.Fprintf(&b, "  %-16s %10s %10s\n", "communication", "time (µs)", "ratio/L")
	fmt.Fprintf(&b, "  %-16s %10.0f %10.1f\n", "not decomposed", r.Direct, r.DirectRatio)
	fmt.Fprintf(&b, "  %-16s %10.0f %10.1f\n", "L", r.L, r.LRatio)
	fmt.Fprintf(&b, "  %-16s %10.0f %10.1f\n", "U", r.U, r.URatio)
	fmt.Fprintf(&b, "  %-16s %10.0f %10.1f\n", "L·U", r.LU, r.LURatio)
	return b.String()
}

// Fig8Point is one x-position of one Figure 8 panel: the ratios of
// the standard distributions over the grouped partition for the
// elementary communication U_k.
type Fig8Point struct {
	K        int
	SizeExp  int // message size 8·2^SizeExp bytes
	Bytes    int64
	Grouped  float64
	Block    float64
	BlockCyc float64
	Cyclic   float64
	RatioB   float64 // BLOCK / grouped
	RatioCB  float64 // CYCLIC(b) / grouped
	RatioC   float64 // CYCLIC / grouped
	AllLocal bool    // grouped (and CYCLIC at k=P) fully local
}

// Figure8 reproduces Figure 8: for each panel k (class count of the
// U_k communication) and message size, the ratio of BLOCK, CYCLIC(4)
// and CYCLIC communication times over the grouped partition on a p×q
// mesh with an n×n virtual grid.
func Figure8(p, q, n int, ks []int) []Fig8Point {
	m := machine.DefaultMesh(p, q)
	var out []Fig8Point
	for _, k := range ks {
		for x := 1; x <= 8; x++ {
			eb := int64(8) << x
			grp := distrib.Dist2D{D0: distrib.Grouped{K: k}, D1: distrib.Block{}}
			blk := distrib.Dist2D{D0: distrib.Block{}, D1: distrib.Block{}}
			cyb := distrib.Dist2D{D0: distrib.BlockCyclic{B: 4}, D1: distrib.Block{}}
			cy := distrib.Dist2D{D0: distrib.Cyclic{}, D1: distrib.Block{}}
			pt := Fig8Point{
				K:        k,
				SizeExp:  x,
				Bytes:    eb,
				Grouped:  m.Time(machine.ElementaryRowComm(m, grp, int64(k), n, n, eb)),
				Block:    m.Time(machine.ElementaryRowComm(m, blk, int64(k), n, n, eb)),
				BlockCyc: m.Time(machine.ElementaryRowComm(m, cyb, int64(k), n, n, eb)),
				Cyclic:   m.Time(machine.ElementaryRowComm(m, cy, int64(k), n, n, eb)),
			}
			if pt.Grouped == 0 {
				pt.AllLocal = true
			} else {
				pt.RatioB = pt.Block / pt.Grouped
				pt.RatioCB = pt.BlockCyc / pt.Grouped
				pt.RatioC = pt.Cyclic / pt.Grouped
			}
			out = append(out, pt)
		}
	}
	return out
}

// FormatFigure8 renders the Figure 8 series as text.
func FormatFigure8(pts []Fig8Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8: U_k communication — distribution time ratios over grouped partition\n")
	lastK := -1
	for _, pt := range pts {
		if pt.K != lastK {
			fmt.Fprintf(&b, " panel k=%d:\n", pt.K)
			lastK = pt.K
		}
		if pt.AllLocal {
			fmt.Fprintf(&b, "  size %5dB  grouped: fully local (BLOCK %.0fµs, CYCLIC(4) %.0fµs, CYCLIC %.0fµs)\n",
				pt.Bytes, pt.Block, pt.BlockCyc, pt.Cyclic)
			continue
		}
		fmt.Fprintf(&b, "  size %5dB  BLOCK/grouped %5.2f  CYCLIC(4)/grouped %5.2f  CYCLIC/grouped %5.2f\n",
			pt.Bytes, pt.RatioB, pt.RatioCB, pt.RatioC)
	}
	return b.String()
}

// BatchSweep runs the concurrent batch engine over the default
// scenario suite (every built-in example nest plus `random` random
// nests, crossed with the fat-tree and mesh machine models): the
// "as many scenarios as you can imagine" experiment scaled down to a
// deterministic sweep. workers ≤ 0 uses GOMAXPROCS.
func BatchSweep(seed int64, random, workers int) *engine.BatchResult {
	suite := scenarios.Generate(scenarios.Config{Seed: seed, Random: random})
	return engine.Run(suite, engine.Options{Workers: workers})
}

// FormatBatchSweep renders the sweep like the other experiments.
func FormatBatchSweep(b *engine.BatchResult) string {
	var s strings.Builder
	s.WriteString("Batch sweep: two-step heuristic over the generated scenario suite\n")
	s.WriteString(b.Report())
	return s.String()
}

// MotivatingExample runs the full pipeline on the paper's Example 1
// and returns the optimization result (Sections 2–3).
func MotivatingExample() (*core.Result, error) {
	return core.Optimize(affine.PaperExample1(), 2, core.Options{})
}

// Example5Result compares the local-first strategy with Platonoff's
// macro-first strategy on Example 5 (Section 7.2), costing both on
// the CM-5-like model for an n×n×n inner grid over nSteps time steps.
type Example5Result struct {
	OursResiduals      int
	PlatonoffResiduals int
	OursTime           float64 // model µs over the whole computation
	PlatonoffTime      float64
}

// Example5 runs the Section 7.2 comparison. Platonoff's mapping keeps
// one partial broadcast per time step; ours is communication-free.
func Example5(procs, nSteps int, bytes int64) (Example5Result, error) {
	p := affine.Example5()
	ours, err := alignment.Align(nil, p, 2, alignment.Options{})
	if err != nil {
		return Example5Result{}, err
	}
	plat, err := baselines.Platonoff(p, 2)
	if err != nil {
		return Example5Result{}, err
	}
	f := machine.DefaultFatTree(procs)
	res := Example5Result{
		OursResiduals:      len(ours.ResidualComms()),
		PlatonoffResiduals: plat.ResidualCount(),
	}
	// cost: one partial broadcast per preserved residual per step
	res.PlatonoffTime = float64(nSteps) * float64(plat.ResidualCount()) * f.Broadcast(bytes)
	res.OursTime = float64(nSteps) * float64(res.OursResiduals) * f.Broadcast(bytes)
	return res, nil
}

// FormatExample5 renders the comparison.
func FormatExample5(r Example5Result, nSteps int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Example 5 (Section 7.2), %d time steps:\n", nSteps)
	fmt.Fprintf(&b, "  local-first (ours):     %d residual comms, %8.0f µs\n", r.OursResiduals, r.OursTime)
	fmt.Fprintf(&b, "  macro-first (Platonoff): %d residual comms, %8.0f µs\n", r.PlatonoffResiduals, r.PlatonoffTime)
	return b.String()
}

// CollectiveRow is one line of the collective-selection experiment:
// which software collective the cost-driven selector picks on a
// concrete mesh, against the flat root-to-all baseline.
type CollectiveRow struct {
	Machine   string
	Pattern   string // "broadcast" or "reduction"
	Scope     string // "total", "axis0"/"axis1", or "plane" (p≥2 macros)
	Bytes     int64
	Algorithm string
	Time      float64 // model µs of the selected schedule
	FlatTime  float64 // model µs of the flat baseline
	Speedup   float64 // FlatTime / Time
}

// CollectiveSelection evaluates the collective selector on every
// default mesh shape (square, skewed and the big tall/flat meshes)
// for total, axis-parallel and per-plane broadcasts and reductions:
// the "how expensive is the residue really" experiment behind the
// engine's macro-communication pricing. The "plane" scope is the
// p ≥ 2 macro ablation — its flat baseline is the machine-spanning
// root-to-all those macros used to be priced as, so the speedup
// column is exactly what per-plane scheduling recovered.
func CollectiveSelection(bytes int64) []CollectiveRow {
	meshes := [][2]int{{4, 4}, {8, 8}, {2, 16}, {16, 2}, {64, 2}, {2, 64}, {16, 16}}
	var rows []CollectiveRow
	for _, pq := range meshes {
		m := machine.DefaultMesh(pq[0], pq[1])
		for _, pat := range []collective.Pattern{collective.Broadcast, collective.Reduction} {
			for _, dim := range []int{-1, 0, 1, 2} {
				var ch, flat collective.Choice
				var scope string
				switch dim {
				case -1:
					scope = "total"
					ch = collective.SelectMesh(m, pat, 0, bytes, "")
					flat = collective.SelectMesh(m, pat, 0, bytes, "flat")
				case 2:
					scope = "plane"
					ch = collective.SelectMeshMacro(m, pat, []int{0, 1}, bytes, "")
					flat = collective.SelectMesh(m, pat, 0, bytes, "flat")
				default:
					scope = fmt.Sprintf("axis%d", dim)
					ch = collective.SelectMeshDim(m, pat, dim, bytes, "")
					flat = collective.SelectMeshDim(m, pat, dim, bytes, "flat")
				}
				rows = append(rows, CollectiveRow{
					Machine:   fmt.Sprintf("mesh%dx%d", pq[0], pq[1]),
					Pattern:   pat.String(),
					Scope:     scope,
					Bytes:     bytes,
					Algorithm: ch.Algorithm,
					Time:      ch.Cost,
					FlatTime:  flat.Cost,
					Speedup:   flat.Cost / ch.Cost,
				})
			}
		}
	}
	return rows
}

// FormatCollectiveSelection renders the selection table.
func FormatCollectiveSelection(rows []CollectiveRow) string {
	var b strings.Builder
	if len(rows) > 0 {
		fmt.Fprintf(&b, "Collective selection (%d bytes payload): tree schedules vs flat root-to-all\n", rows[0].Bytes)
	}
	fmt.Fprintf(&b, "  %-10s %-9s %-6s %-24s %12s %12s %8s\n",
		"machine", "pattern", "scope", "selected", "model µs", "flat µs", "speedup")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-10s %-9s %-6s %-24s %12.0f %12.0f %7.1fx\n",
			r.Machine, r.Pattern, r.Scope, r.Algorithm, r.Time, r.FlatTime, r.Speedup)
	}
	return b.String()
}
