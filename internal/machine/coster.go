package machine

import (
	"fmt"
	"sync"
)

// CostEval is the contention-cost evaluator of a mesh: the one greedy
// round packer behind Mesh2D.Time. Each contention round keeps its
// link occupancy as a bitset of uint64 words over a dense directed-
// link index, plus a dirty list of the words it set, and the rounds
// and path scratch stay allocated across calls — so pricing
// thousands of candidate schedules costs no steady-state allocation.
//
// It additionally exposes the packing itself (Assign): the partition
// of a pattern into contention rounds depends only on message paths,
// never on payload sizes, which is what lets a compiled schedule
// template precompute its contention structure once and re-price it
// for any byte size with pure arithmetic (see internal/collective's
// template layer).
//
// A CostEval is bound to one mesh geometry and is not safe for
// concurrent use; give each goroutine its own. Mesh2D.Time draws one
// from a package pool per call.
type CostEval struct {
	m *Mesh2D
	// nlinks is the directed-link index space: 2 dims x 2 dirs per
	// node. Indices are ((x*Q+y)*2+dim)*2+dirIdx with dirIdx 0 for
	// dir -1 and 1 for dir +1.
	nlinks  int
	rounds  []costRound
	nrounds int
	// path is the current message's route as occupancy words, links
	// of one word merged when consecutive; hops is its link count.
	path []pathWord
	hops int
}

// costRound is one contention round: a link-occupancy bitset plus a
// dirty list of the words set, for O(links touched) clearing between
// calls.
type costRound struct {
	used     []uint64
	dirty    []int32
	maxBytes int64
	maxHops  int
}

// pathWord is the part of a route that falls in one occupancy word.
type pathWord struct {
	w    int32
	mask uint64
}

// evalPool recycles evaluators across Mesh2D.Time calls.
var evalPool = sync.Pool{New: func() any { return new(CostEval) }}

// NewCostEval builds an evaluator for the mesh.
func NewCostEval(m *Mesh2D) *CostEval {
	if m.P < 1 || m.Q < 1 {
		panic(fmt.Sprintf("machine: cost evaluator needs a non-empty mesh, got %dx%d", m.P, m.Q))
	}
	e := &CostEval{}
	e.Bind(m)
	return e
}

// Bind points the evaluator at mesh m, so one pooled evaluator can
// serve many meshes. Round bitmaps are kept when the link count
// matches (the next Assign clears them through their dirty lists) and
// dropped otherwise.
func (e *CostEval) Bind(m *Mesh2D) {
	e.m = m
	if n := m.P * m.Q * 4; n != e.nlinks {
		e.nlinks = n
		e.rounds = e.rounds[:0]
		e.nrounds = 0
	}
}

// Time prices the pattern under the mesh's contention model; see
// Mesh2D.Time.
func (e *CostEval) Time(msgs []Message) float64 {
	nr := e.Assign(msgs, nil)
	total := 0.0
	for i := 0; i < nr; i++ {
		r := &e.rounds[i]
		total += e.m.Startup + float64(r.maxBytes)*e.m.PerByte + float64(r.maxHops)*e.m.HopLatency
	}
	return total
}

// Assign packs the pattern into contention rounds exactly as Time
// does and returns the round count. When assign is non-nil (length ≥
// len(msgs)) it receives each message's round index, -1 for local
// (Src == Dst) messages. The packing reads only message endpoints —
// payload sizes never influence placement — so an Assign over a
// schedule's structure is valid for every byte size. Per-round
// aggregates from the packing remain readable via RoundHops until the
// next Time/Assign call.
func (e *CostEval) Assign(msgs []Message, assign []int) int {
	e.reset()
	for mi := range msgs {
		msg := &msgs[mi]
		if msg.Src == msg.Dst {
			if assign != nil {
				assign[mi] = -1
			}
			continue
		}
		e.walk(msg.Src, msg.Dst)
		ri := e.firstFree()
		if ri == e.nrounds {
			e.grow(ri)
			e.nrounds++
		}
		r := &e.rounds[ri]
		r.occupy(e.path)
		if msg.Bytes > r.maxBytes {
			r.maxBytes = msg.Bytes
		}
		if e.hops > r.maxHops {
			r.maxHops = e.hops
		}
		if assign != nil {
			assign[mi] = ri
		}
	}
	return e.nrounds
}

// firstFree returns the first open round none of whose occupied
// links the current path uses, or nrounds when every round conflicts.
func (e *CostEval) firstFree() int {
rounds:
	for ri := 0; ri < e.nrounds; ri++ {
		used := e.rounds[ri].used
		for _, p := range e.path {
			if used[p.w]&p.mask != 0 {
				continue rounds
			}
		}
		return ri
	}
	return e.nrounds
}

// RoundHops returns the longest path (in hops) of contention round i
// of the last Time/Assign call.
func (e *CostEval) RoundHops(i int) int { return e.rounds[i].maxHops }

// reset clears the previous call's round state, touching only the
// words it actually set.
func (e *CostEval) reset() {
	for i := 0; i < e.nrounds; i++ {
		r := &e.rounds[i]
		for _, w := range r.dirty {
			r.used[w] = 0
		}
		r.dirty = r.dirty[:0]
		r.maxBytes = 0
		r.maxHops = 0
	}
	e.nrounds = 0
}

// grow makes round i exist, allocating its bitmap on first use.
func (e *CostEval) grow(i int) {
	for len(e.rounds) <= i {
		e.rounds = append(e.rounds, costRound{used: make([]uint64, (e.nlinks+63)/64)})
	}
}

// occupy marks a path's links used, listing each word it sets as
// dirty; a word listed twice is simply cleared twice.
func (r *costRound) occupy(path []pathWord) {
	for _, p := range path {
		r.used[p.w] |= p.mask
		r.dirty = append(r.dirty, p.w)
	}
}

// walk fills e.path with the occupancy words of the XY route, the
// flat-index twin of Mesh2D.walkXY.
func (e *CostEval) walk(src, dst int) {
	m := e.m
	e.path = e.path[:0]
	e.hops = 0
	x1, y1 := m.Coords(src)
	x2, y2 := m.Coords(dst)
	for x := x1; x != x2; {
		dir := 1
		if x2 < x {
			dir = -1
		}
		e.add(e.linkIndex(x, y1, 0, dir))
		x += dir
	}
	for y := y1; y != y2; {
		dir := 1
		if y2 < y {
			dir = -1
		}
		e.add(e.linkIndex(x2, y, 1, dir))
		y += dir
	}
}

// add appends link l to the current path.
func (e *CostEval) add(l int32) {
	e.hops++
	w, bit := l>>6, uint64(1)<<(l&63)
	if n := len(e.path); n > 0 && e.path[n-1].w == w {
		e.path[n-1].mask |= bit
		return
	}
	e.path = append(e.path, pathWord{w: w, mask: bit})
}

// linkIndex flattens a directed link to its index in [0, nlinks).
func (e *CostEval) linkIndex(x, y, dim, dir int) int32 {
	dirIdx := 0
	if dir > 0 {
		dirIdx = 1
	}
	return int32(((x*e.m.Q+y)*2+dim)*2 + dirIdx)
}
