package collective_test

import (
	"fmt"
	"testing"

	"repro/internal/collective"
	"repro/internal/compiled"
	"repro/internal/distrib"
	"repro/internal/intmat"
	"repro/internal/machine"
)

// oracleMeshes are the mesh shapes of the scenario generator's
// default, skewed and big-mesh axes.
var oracleMeshes = [][2]int{{4, 4}, {8, 8}, {2, 16}, {16, 2}, {64, 2}, {2, 64}, {16, 16}}

// oraclePayloads cross payloads from below the chain segment sizes to
// scatter-allgather territory.
var oraclePayloads = []int64{1, 64, 4096, 1 << 20}

// oracleOneShotPayload is the payload the one-shot Select* functions
// are checked at.
const oracleOneShotPayload = 4096

// candidate is one concrete schedule the selector could have chosen,
// priced by MeshCost over its materialized rounds.
type candidate struct {
	scope, algo string
	cost        float64
	rounds      int
}

// timeRounds prices concrete rounds with the reference contention
// model, round by round.
func timeRounds(m *machine.Mesh2D, rounds []collective.Round) float64 {
	total := 0.0
	for _, r := range rounds {
		total += m.Time(r)
	}
	return total
}

// scopeCandidates are every applicable algorithm's concrete schedule
// for one selection scope, grouped by scope.
type scopeCandidates struct {
	total, planes []candidate
	axis          [2][]candidate
}

func buildCandidates(m *machine.Mesh2D, p collective.Pattern, bytes int64) *scopeCandidates {
	add := func(list *[]candidate, sched *collective.Schedule, err error) {
		if err == nil { // else not applicable to this scope
			*list = append(*list, candidate{scope: sched.Scope, algo: sched.Algorithm,
				cost: collective.MeshCost(m, sched.Rounds), rounds: len(sched.Rounds)})
		}
	}
	c := &scopeCandidates{}
	algos := collective.MeshAlgorithms()
	for _, a := range algos {
		s, err := collective.ScheduleMesh(m, p, 0, bytes, a)
		add(&c.total, s, err)
		for dim := 0; dim < 2; dim++ {
			s, err := collective.ScheduleMeshDim(m, p, dim, bytes, a)
			add(&c.axis[dim], s, err)
		}
		for _, a2 := range algos {
			for dimFirst := 0; dimFirst < 2; dimFirst++ {
				s, err := collective.SchedulePlanes(m, p, []collective.Plane{collective.FullPlane(m)}, dimFirst, bytes, a, a2)
				add(&c.planes, s, err)
			}
		}
	}
	return c
}

// pinned narrows one scope's candidates to what force admits: the
// named algorithm (both phases of a plane composition), or — when it
// names nothing applicable here — every candidate, as the selector
// falls back to free selection.
func pinned(cands []candidate, force string) []candidate {
	if force == "" {
		return cands
	}
	var out []candidate
	for _, c := range cands {
		if c.algo == force || c.algo == force+"+"+force {
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		return cands
	}
	return out
}

// checkOracle asserts that ch is one of the admissible concrete
// schedules, priced exactly as MeshCost prices its rounds, and that
// no admissible schedule is strictly cheaper.
func checkOracle(t *testing.T, ctxt string, ch collective.Choice, groups ...[]candidate) {
	t.Helper()
	found := false
	for _, g := range groups {
		for _, c := range g {
			if c.scope == ch.Scope && c.algo == ch.Algorithm {
				found = true
				if c.cost != ch.Cost || c.rounds != ch.Rounds {
					t.Fatalf("%s: choice %+v, concrete schedule costs %v in %d rounds", ctxt, ch, c.cost, c.rounds)
				}
			}
			if c.cost < ch.Cost {
				t.Fatalf("%s: chose %s@%q at %v, but %s@%q costs %v", ctxt, ch.Algorithm, ch.Scope, ch.Cost, c.algo, c.scope, c.cost)
			}
		}
	}
	if !found {
		t.Fatalf("%s: choice %+v is not an admissible schedule", ctxt, ch)
	}
}

// TestMeshSelectionOracle holds every mesh selection entry point —
// the cached compiled.Pricer and the one-shot Select* functions — to
// the independent oracle: the concrete schedules ScheduleMesh,
// ScheduleMeshDim and SchedulePlanes build, priced by MeshCost over
// their rounds. On every default mesh, for both patterns and every
// force value, the chosen schedule must cost exactly its concrete
// rounds, and no admissible algorithm's concrete schedule may be
// cheaper. The Pricer is checked across the payload range; the
// one-shot functions compile the same templates afresh on every call
// (compilation is payload-independent), so one payload covers them.
// Unpinned macro selections are also rebuilt through MacroSchedule
// and repriced round by round with Mesh2D.Time.
func TestMeshSelectionOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive concrete-schedule oracle")
	}
	forces := append([]string{""}, collective.AllAlgorithms()...)
	pr := compiled.NewPricer()
	for _, sh := range oracleMeshes {
		m := machine.DefaultMesh(sh[0], sh[1])
		full := []collective.Plane{collective.FullPlane(m)}
		for _, p := range []collective.Pattern{collective.Broadcast, collective.Reduction} {
			for _, b := range oraclePayloads {
				c := buildCandidates(m, p, b)
				oneShot := b == oracleOneShotPayload
				for _, force := range forces {
					check := func(what string, ch collective.Choice, groups ...[]candidate) {
						t.Helper()
						checkOracle(t, fmt.Sprintf("%dx%d %s bytes=%d force=%q %s", sh[0], sh[1], p, b, force, what), ch, groups...)
					}
					total := pinned(c.total, force)
					check("Pricer.SelectMesh", pr.SelectMesh(m, p, b, force), total)
					if oneShot {
						check("SelectMesh", collective.SelectMesh(m, p, 0, b, force), total)
					}
					for dim := 0; dim < 2; dim++ {
						axis := pinned(c.axis[dim], force)
						check(fmt.Sprintf("Pricer.SelectMeshDim(%d)", dim), pr.SelectMeshDim(m, p, dim, b, force), axis)
						if oneShot {
							check(fmt.Sprintf("SelectMeshDim(%d)", dim), collective.SelectMeshDim(m, p, dim, b, force), axis)
						}
					}
					planes := pinned(c.planes, force)
					if oneShot {
						check("SelectMeshPlanes", collective.SelectMeshPlanes(m, p, full, b, force), planes)
					}
					for _, dims := range [][]int{nil, {0}, {1}, {0, 1}} {
						part := [][]candidate{total}
						switch len(dims) {
						case 1:
							part = append(part, pinned(c.axis[dims[0]], force))
						case 2:
							part = append(part, planes)
						}
						what := fmt.Sprintf("SelectMeshMacro(%v)", dims)
						ch := pr.SelectMeshMacro(m, p, dims, b, force)
						check("Pricer."+what, ch, part...)
						if oneShot {
							check(what, collective.SelectMeshMacro(m, p, dims, b, force), part...)
						}
						if force != "" {
							continue
						}
						sched, err := collective.MacroSchedule(m, p, dims, b, force)
						if err != nil {
							t.Fatalf("%dx%d %s bytes=%d %s: MacroSchedule: %v", sh[0], sh[1], p, b, what, err)
						}
						if got := timeRounds(m, sched.Rounds); got != ch.Cost || sched.Choice() != ch {
							t.Fatalf("%dx%d %s bytes=%d %s: MacroSchedule %+v (rounds cost %v) does not rebuild choice %+v",
								sh[0], sh[1], p, b, what, sched.Choice(), got, ch)
						}
					}
				}
			}
		}
	}
}

// oracleDists are the scenario generator's four distributions.
var oracleDists = []distrib.Dist2D{
	{D0: distrib.Block{}, D1: distrib.Block{}},
	{D0: distrib.Cyclic{}, D1: distrib.Cyclic{}},
	{D0: distrib.BlockCyclic{B: 4}, D1: distrib.Block{}},
	{D0: distrib.Grouped{K: 2}, D1: distrib.Block{}},
}

// oracleAffine are affine maps (i, j) → T·(i, j)ᵗ + off of the kinds
// the engine prices as mesh patterns: elementary decomposition
// factors, a general data flow, the transpose stand-in, and the unit
// translation.
var oracleAffine = []struct {
	t   *intmat.Mat
	off []int64
}{
	{intmat.New(2, 2, 1, 2, 0, 1), nil},
	{intmat.New(2, 2, 1, 0, 3, 1), nil},
	{intmat.New(2, 2, 1, 2, 3, 7), nil},
	{intmat.New(2, 2, 0, 1, 1, 0), nil},
	{intmat.Identity(2), []int64{1, 1}},
}

// oraclePatternPayloads are per-element sizes, from empty to large.
var oraclePatternPayloads = []int64{0, 1, 64, 4096, 1 << 22}

// calibrated returns the mesh geometry under a non-default link-cost
// calibration.
func calibrated(p, q int) *machine.Mesh2D {
	return &machine.Mesh2D{P: p, Q: q, Startup: 37.5, PerByte: 0.003, HopLatency: 1.25}
}

// TestPermuteTemplateOracle holds the compiled permute selection to
// its concrete oracle. A PermuteTemplate compiled once from the
// pattern at one byte per element must, at every per-element payload
// and under both link-cost calibrations, choose exactly the algorithm
// MeshCost over PermuteRounds of the pattern built at that payload
// picks (first algorithm winning ties), with the same cost and round
// count, and SelectPermute over the concrete pattern must agree. A
// force naming no permute algorithm selects freely. The template's
// "direct" schedule over the element-wise general pattern must cost
// exactly Mesh2D.Time of that pattern.
func TestPermuteTemplateOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive concrete-pattern oracle")
	}
	forces := append([]string{"", "flat"}, collective.PermuteAlgorithms()...)
	for _, sh := range oracleMeshes {
		meshes := []*machine.Mesh2D{machine.DefaultMesh(sh[0], sh[1]), calibrated(sh[0], sh[1])}
		m0 := meshes[0]
		for _, dist := range oracleDists {
			for _, n := range []int{16, 32} {
				for _, af := range oracleAffine {
					unit := machine.AffineComm2D(m0, dist, af.t, af.off, n, n, 1)
					tmpls := make([]*collective.PermuteTemplate, len(forces))
					for i, force := range forces {
						tmpls[i] = collective.NewPermuteTemplate(m0, unit, force)
					}
					general := collective.NewPermuteTemplate(m0, machine.GeneralComm2D(m0, dist, af.t, af.off, n, n, 1), "direct")
					for _, eb := range oraclePatternPayloads {
						msgs := machine.AffineComm2D(m0, dist, af.t, af.off, n, n, eb)
						elems := machine.GeneralComm2D(m0, dist, af.t, af.off, n, n, eb)
						for _, m := range meshes {
							ctxt := fmt.Sprintf("%dx%d (startup %g) %s n=%d T=%v off=%v eb=%d",
								m.P, m.Q, m.Startup, dist.Name(), n, af.t, af.off, eb)
							var oracle []candidate
							for _, algo := range collective.PermuteAlgorithms() {
								rounds := collective.PermuteRounds(m, msgs, algo)
								oracle = append(oracle, candidate{algo: algo, cost: collective.MeshCost(m, rounds), rounds: len(rounds)})
							}
							for i, force := range forces {
								want := cheapest(pinned(oracle, force))
								got := tmpls[i].Eval(m, eb)
								if got.Pattern != collective.Shift || got.Algorithm != want.algo || got.Cost != want.cost || got.Rounds != want.rounds {
									t.Fatalf("%s force=%q: template %+v, concrete oracle %s at %v in %d rounds",
										ctxt, force, got, want.algo, want.cost, want.rounds)
								}
								if sel := collective.SelectPermute(m, msgs, force); sel != got {
									t.Fatalf("%s force=%q: SelectPermute %+v, template %+v", ctxt, force, sel, got)
								}
							}
							got := general.Eval(m, eb)
							if want := m.Time(elems); got.Algorithm != "direct" || got.Cost != want || got.Rounds != 1 {
								t.Fatalf("%s: general direct %+v, Mesh2D.Time %v", ctxt, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// cheapest returns the first lowest-cost candidate.
func cheapest(cands []candidate) candidate {
	best := cands[0]
	for _, c := range cands[1:] {
		if c.cost < best.cost {
			best = c
		}
	}
	return best
}
