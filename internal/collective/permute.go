package collective

import (
	"fmt"
	"sync"

	"repro/internal/machine"
)

// Permute algorithms execute an arbitrary aggregated message pattern
// (a residual shift/translation phase: typically one destination per
// sender) on the mesh. "direct" posts every message in one round and
// lets the link-contention model serialize conflicts; "xy-phased"
// store-and-forwards every message at its XY corner, so each phase's
// traffic moves along a single dimension and long crossing paths
// never collide mid-route; "staggered" is the coloring variant for
// high-contention affine phases: messages are 2-colored by source
// diagonal and the colors route through opposite corners (x-first vs
// y-first), so each phase splits its traffic across both dimensions
// instead of funnelling everything through one corner set.
var permuteAlgos = []string{"direct", "xy-phased", "staggered"}

// PermuteAlgorithms lists the shift/translation algorithm names in
// tie-breaking order.
func PermuteAlgorithms() []string { return append([]string(nil), permuteAlgos...) }

// permuteShape emits the named permute algorithm's schedule for the
// pattern in byte-symbolic form: every message, forwarded or not,
// keeps its pattern message's Bytes as coefficient (div 1), so at
// payload B it carries Bytes·B. Unknown names return nil.
func permuteShape(m *machine.Mesh2D, msgs []machine.Message, algo string) []shapeRound {
	switch algo {
	case "direct":
		r := make(shapeRound, len(msgs))
		for i, msg := range msgs {
			r[i] = shapeMsg{src: msg.Src, dst: msg.Dst, coef: msg.Bytes, div: 1}
		}
		return []shapeRound{r}
	case "xy-phased", "staggered":
		// xy-phased routes every message x-first through the (dx, sy)
		// corner. staggered colors sources like a checkerboard: even
		// diagonals (x+y) route x-first, odd diagonals y-first through
		// the (sx, dy) corner. Both phases then carry a mix of x- and
		// y-traffic from disjoint source sets, which is what breaks up
		// the single-corner hot spots of xy-phased on dense affine
		// patterns.
		var phase1, phase2 shapeRound
		for _, msg := range msgs {
			if msg.Src == msg.Dst {
				continue
			}
			sx, sy := m.Coords(msg.Src)
			dx, dy := m.Coords(msg.Dst)
			corner := m.Rank(dx, sy)
			if algo == "staggered" && (sx+sy)%2 == 1 {
				corner = m.Rank(sx, dy)
			}
			if corner != msg.Src {
				phase1 = append(phase1, shapeMsg{src: msg.Src, dst: corner, coef: msg.Bytes, div: 1})
			}
			if corner != msg.Dst {
				phase2 = append(phase2, shapeMsg{src: corner, dst: msg.Dst, coef: msg.Bytes, div: 1})
			}
		}
		var rounds []shapeRound
		if len(phase1) > 0 {
			rounds = append(rounds, phase1)
		}
		if len(phase2) > 0 {
			rounds = append(rounds, phase2)
		}
		return rounds
	}
	return nil
}

// PermuteRounds builds the named permute algorithm's schedule for the
// pattern; unknown names return nil. Priced with MeshCost, it is the
// concrete oracle of PermuteTemplate.
func PermuteRounds(m *machine.Mesh2D, msgs []machine.Message, algo string) []Round {
	return instantiate(permuteShape(m, msgs, algo), 1)
}

// PermuteTemplate is a compiled permute selection: each applicable
// permute algorithm's schedule over one pattern, frozen into its
// contention partition. The pattern's Bytes are per-element
// multiplicities, so evaluating at a payload B prices the pattern
// built with B bytes per element; a pattern of concrete sizes
// evaluates at B = 1. Packing never reads sizes and every size is a
// non-negative multiple of B, so each Eval costs exactly what MeshCost
// charges the concrete PermuteRounds. Eval is thread-safe and
// allocation-free.
type PermuteTemplate struct {
	p, q  int
	algos []permuteAlgoTemplate
}

// permuteAlgoTemplate is one permute algorithm's compiled schedule.
type permuteAlgoTemplate struct {
	name   string
	rounds []pricedRound
}

// permutePool recycles NewPermuteTemplate's compilation scratch; a
// template keeps none of it.
var permutePool = sync.Pool{New: func() any { return &evaluator{ev: new(machine.CostEval)} }}

// NewPermuteTemplate compiles the permute selection over the pattern.
// force pins it to one named permute algorithm; other names (or "")
// select freely. It is safe for concurrent use.
func NewPermuteTemplate(m *machine.Mesh2D, msgs []machine.Message, force string) *PermuteTemplate {
	e := permutePool.Get().(*evaluator)
	defer permutePool.Put(e)
	e.ev.Bind(m)
	pinned := false
	for _, name := range permuteAlgos {
		pinned = pinned || name == force
	}
	t := &PermuteTemplate{p: m.P, q: m.Q}
	for _, name := range permuteAlgos {
		if pinned && name != force {
			continue
		}
		t.algos = append(t.algos, permuteAlgoTemplate{name: name,
			rounds: e.compileSeq(permuteShape(m, msgs, name), Shift)})
	}
	return t
}

// Eval selects the cheapest permute algorithm at the payload on a
// mesh instance of the compiled geometry, earlier algorithms winning
// ties.
func (t *PermuteTemplate) Eval(m *machine.Mesh2D, bytes int64) Choice {
	if m.P != t.p || m.Q != t.q {
		panic(fmt.Sprintf("collective: permute template compiled for %dx%d evaluated on %dx%d", t.p, t.q, m.P, m.Q))
	}
	best := Choice{Pattern: Shift, Cost: -1}
	for i := range t.algos {
		a := &t.algos[i]
		if cost := foldRounds(a.rounds, m, bytes, 0); best.Cost < 0 || cost < best.Cost {
			best = Choice{Pattern: Shift, Algorithm: a.name, Cost: cost, Rounds: len(a.rounds)}
		}
	}
	return best
}

// SelectPermute selects the cheapest permute algorithm for the
// concrete pattern (deterministic tie-breaking as in SelectMesh): a
// one-shot PermuteTemplate evaluation at unit payload. force pins the
// choice to one named permute algorithm; other names (or "") select
// freely. Repeated selections over one pattern are cheaper through a
// compiled PermuteTemplate.
func SelectPermute(m *machine.Mesh2D, msgs []machine.Message, force string) Choice {
	return NewPermuteTemplate(m, msgs, force).Eval(m, 1)
}
