package machine

import (
	"math/rand"
	"sync"
	"testing"
)

// randPattern builds a random message set over the mesh, including
// occasional local (Src == Dst) messages and duplicate endpoints.
func randPattern(rng *rand.Rand, m *Mesh2D, n int) []Message {
	msgs := make([]Message, n)
	for i := range msgs {
		src := rng.Intn(m.Procs())
		dst := rng.Intn(m.Procs())
		if rng.Intn(8) == 0 {
			dst = src
		}
		msgs[i] = Message{Src: src, Dst: dst, Bytes: int64(rng.Intn(1 << 14))}
	}
	return msgs
}

// refTime is the reference contention packer: the map-per-round
// greedy packing the model is defined by, kept here so the pooled,
// bitset CostEval behind Mesh2D.Time is checked against an
// independent implementation.
func refTime(m *Mesh2D, msgs []Message) float64 {
	type round struct {
		used     map[linkID]bool
		maxBytes int64
		maxHops  int
	}
	var rounds []*round
	for _, msg := range msgs {
		if msg.Src == msg.Dst {
			continue
		}
		var path []linkID
		m.walkXY(msg.Src, msg.Dst, func(l linkID) { path = append(path, l) })
		placed := false
		for _, r := range rounds {
			free := true
			for _, l := range path {
				if r.used[l] {
					free = false
					break
				}
			}
			if free {
				for _, l := range path {
					r.used[l] = true
				}
				if msg.Bytes > r.maxBytes {
					r.maxBytes = msg.Bytes
				}
				if len(path) > r.maxHops {
					r.maxHops = len(path)
				}
				placed = true
				break
			}
		}
		if !placed {
			r := &round{used: map[linkID]bool{}, maxBytes: msg.Bytes, maxHops: len(path)}
			for _, l := range path {
				r.used[l] = true
			}
			rounds = append(rounds, r)
		}
	}
	total := 0.0
	for _, r := range rounds {
		total += m.Startup + float64(r.maxBytes)*m.PerByte + float64(r.maxHops)*m.HopLatency
	}
	return total
}

// oneLink is n messages that all cross link (0,0)→(0,1) of a 1xQ
// mesh, so they serialize into n rounds.
func oneLink(n int) []Message {
	msgs := make([]Message, n)
	for i := range msgs {
		msgs[i] = Message{Src: 0, Dst: 1 + i%7, Bytes: int64(100 + i)}
	}
	return msgs
}

// TestCostEvalMatchesTime checks bit-identity of Mesh2D.Time and of
// a reused CostEval against the reference packer, over random
// patterns on assorted mesh shapes — including link counts that are
// not a multiple of 64 (3x5, 2x2, 5x7) — and over a pattern forced
// past 64 rounds.
func TestCostEvalMatchesTime(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := [][2]int{{1, 1}, {1, 8}, {8, 1}, {2, 2}, {4, 4}, {8, 8}, {3, 5}, {5, 7}, {16, 2}, {2, 16}, {16, 16}, {64, 2}}
	for _, sh := range shapes {
		m := DefaultMesh(sh[0], sh[1])
		ev := NewCostEval(m)
		for trial := 0; trial < 50; trial++ {
			n := rng.Intn(60)
			if trial%10 == 9 {
				n = 100 + rng.Intn(200)
			}
			msgs := randPattern(rng, m, n)
			want := refTime(m, msgs)
			if got := m.Time(msgs); got != want {
				t.Fatalf("mesh %dx%d trial %d: Mesh2D.Time = %v, reference = %v", sh[0], sh[1], trial, got, want)
			}
			if got := ev.Time(msgs); got != want {
				t.Fatalf("mesh %dx%d trial %d: CostEval.Time = %v, reference = %v", sh[0], sh[1], trial, got, want)
			}
		}
	}

	m := DefaultMesh(1, 8)
	msgs := oneLink(200)
	want := refTime(m, msgs)
	if nr := NewCostEval(m).Assign(msgs, nil); nr != 200 {
		t.Fatalf("200 messages over one link packed into %d rounds, want 200", nr)
	}
	if got := m.Time(msgs); got != want {
		t.Fatalf("200 rounds: Mesh2D.Time = %v, reference = %v", got, want)
	}
}

// TestCostEvalRebind reuses one evaluator, and the pool behind
// Mesh2D.Time, across alternating geometries — including two with
// the same link count (16x16 and 4x64), whose bitmaps a rebind keeps
// — so bits left stale by a previous geometry would misplace
// messages.
func TestCostEvalRebind(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	shapes := [][2]int{{16, 16}, {2, 2}, {64, 2}, {4, 64}, {16, 16}, {1, 8}, {2, 2}, {16, 16}}
	ev := NewCostEval(DefaultMesh(16, 16))
	for round := 0; round < 3; round++ {
		for _, sh := range shapes {
			m := DefaultMesh(sh[0], sh[1])
			ev.Bind(m)
			for trial := 0; trial < 5; trial++ {
				msgs := randPattern(rng, m, 50+rng.Intn(250))
				if sh == [2]int{1, 8} {
					msgs = oneLink(150)
				}
				want := refTime(m, msgs)
				if got := ev.Time(msgs); got != want {
					t.Fatalf("rebound evaluator on %dx%d: Time = %v, reference = %v", sh[0], sh[1], got, want)
				}
				if got := m.Time(msgs); got != want {
					t.Fatalf("pooled Mesh2D.Time on %dx%d: %v, reference = %v", sh[0], sh[1], got, want)
				}
			}
		}
	}
}

// TestMeshTimeConcurrent prices patterns on different geometries
// from several goroutines at once; under -race this covers the
// evaluator pool.
func TestMeshTimeConcurrent(t *testing.T) {
	shapes := [][2]int{{16, 16}, {2, 2}, {64, 2}, {3, 5}, {4, 64}, {1, 8}}
	type job struct {
		m    *Mesh2D
		msgs []Message
		want float64
	}
	rng := rand.New(rand.NewSource(17))
	jobs := make([][]job, 8)
	for g := range jobs {
		for i := 0; i < 20; i++ {
			sh := shapes[(g+i)%len(shapes)]
			m := DefaultMesh(sh[0], sh[1])
			msgs := randPattern(rng, m, rng.Intn(150))
			jobs[g] = append(jobs[g], job{m, msgs, refTime(m, msgs)})
		}
	}
	var wg sync.WaitGroup
	for g := range jobs {
		wg.Add(1)
		go func(js []job) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				for _, j := range js {
					if got := j.m.Time(j.msgs); got != j.want {
						t.Errorf("concurrent Mesh2D.Time on %dx%d = %v, reference = %v", j.m.P, j.m.Q, got, j.want)
						return
					}
				}
			}
		}(jobs[g])
	}
	wg.Wait()
}

// TestMeshTimeWarmAllocs checks that a warm Mesh2D.Time allocates
// nothing. The race detector makes sync.Pool drop items at random,
// so the count is only meaningful without it.
func TestMeshTimeWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	m := DefaultMesh(16, 16)
	msgs := randPattern(rand.New(rand.NewSource(19)), m, 200)
	m.Time(msgs)
	if allocs := testing.AllocsPerRun(100, func() { m.Time(msgs) }); allocs != 0 {
		t.Fatalf("warm Mesh2D.Time allocates %v times per call, want 0", allocs)
	}
}

// TestCostEvalAssign checks the exposed packing: round indices are
// dense and in first-use order, locals get -1, the per-round hop
// maxima match a recomputation, and the partition ignores byte sizes.
func TestCostEvalAssign(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := DefaultMesh(4, 4)
	ev := NewCostEval(m)
	for trial := 0; trial < 30; trial++ {
		msgs := randPattern(rng, m, 40)
		assign := make([]int, len(msgs))
		nr := ev.Assign(msgs, assign)

		// Recompute per-round aggregates from the reported partition.
		hops := make([]int, nr)
		var maxRound int = -1
		for i, msg := range msgs {
			if msg.Src == msg.Dst {
				if assign[i] != -1 {
					t.Fatalf("local message %d assigned round %d", i, assign[i])
				}
				continue
			}
			if assign[i] < 0 || assign[i] >= nr {
				t.Fatalf("message %d assigned out-of-range round %d of %d", i, assign[i], nr)
			}
			if assign[i] > maxRound+1 {
				t.Fatalf("round indices not dense: message %d opens round %d after %d", i, assign[i], maxRound)
			}
			if assign[i] > maxRound {
				maxRound = assign[i]
			}
			h := 0
			m.walkXY(msg.Src, msg.Dst, func(linkID) { h++ })
			if h > hops[assign[i]] {
				hops[assign[i]] = h
			}
		}
		if maxRound+1 != nr {
			t.Fatalf("Assign reported %d rounds, partition uses %d", nr, maxRound+1)
		}
		for i := 0; i < nr; i++ {
			if ev.RoundHops(i) != hops[i] {
				t.Fatalf("round %d: RoundHops = %d, recomputed %d", i, ev.RoundHops(i), hops[i])
			}
		}

		// Bytes must not influence placement: zero them and repack.
		zeroed := make([]Message, len(msgs))
		for i, msg := range msgs {
			zeroed[i] = Message{Src: msg.Src, Dst: msg.Dst}
		}
		assign2 := make([]int, len(zeroed))
		if nr2 := ev.Assign(zeroed, assign2); nr2 != nr {
			t.Fatalf("byte-zeroed pattern packs into %d rounds, original %d", nr2, nr)
		}
		for i := range assign {
			if assign[i] != assign2[i] {
				t.Fatalf("message %d: round %d with bytes, %d without", i, assign[i], assign2[i])
			}
		}
	}
}
