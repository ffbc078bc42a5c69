package machine

import (
	"testing"

	"repro/internal/distrib"
	"repro/internal/intmat"
)

func TestMeshCoordsRank(t *testing.T) {
	m := DefaultMesh(4, 8)
	if m.Procs() != 32 {
		t.Fatal("procs wrong")
	}
	for r := 0; r < m.Procs(); r++ {
		x, y := m.Coords(r)
		if m.Rank(x, y) != r {
			t.Fatalf("roundtrip failed for %d", r)
		}
	}
}

func TestMeshTimeEmptyAndLocal(t *testing.T) {
	m := DefaultMesh(4, 4)
	if m.Time(nil) != 0 {
		t.Fatal("empty pattern costs time")
	}
	if m.Time([]Message{{Src: 3, Dst: 3, Bytes: 1 << 20}}) != 0 {
		t.Fatal("local message costs time")
	}
}

func TestMeshTimeSingleMessage(t *testing.T) {
	m := DefaultMesh(4, 4)
	// 1 hop, 100 bytes: startup + 100*perByte + 1*hopLat
	got := m.Time([]Message{{Src: m.Rank(0, 0), Dst: m.Rank(0, 1), Bytes: 100}})
	want := m.Startup + 100*m.PerByte + m.HopLatency
	if got != want {
		t.Fatalf("time = %v, want %v", got, want)
	}
}

func TestMeshDisjointMessagesShareRound(t *testing.T) {
	m := DefaultMesh(4, 4)
	// two messages in different rows: disjoint paths, one round
	msgs := []Message{
		{Src: m.Rank(0, 0), Dst: m.Rank(0, 3), Bytes: 10},
		{Src: m.Rank(1, 0), Dst: m.Rank(1, 3), Bytes: 10},
	}
	one := m.Time(msgs[:1])
	both := m.Time(msgs)
	if both != one {
		t.Fatalf("disjoint messages serialized: %v vs %v", both, one)
	}
}

func TestMeshConflictingMessagesSerialize(t *testing.T) {
	m := DefaultMesh(4, 4)
	// same path: must serialize into two rounds
	msgs := []Message{
		{Src: m.Rank(0, 0), Dst: m.Rank(0, 3), Bytes: 10},
		{Src: m.Rank(0, 0), Dst: m.Rank(0, 3), Bytes: 10},
	}
	one := m.Time(msgs[:1])
	both := m.Time(msgs)
	if both != 2*one {
		t.Fatalf("conflicting messages not serialized: %v vs %v", both, 2*one)
	}
	// overlapping (not identical) paths also conflict
	msgs2 := []Message{
		{Src: m.Rank(0, 0), Dst: m.Rank(0, 2), Bytes: 10},
		{Src: m.Rank(0, 1), Dst: m.Rank(0, 3), Bytes: 10},
	}
	if m.Time(msgs2) <= one {
		t.Fatal("overlapping paths did not serialize")
	}
}

func TestAggregate(t *testing.T) {
	msgs := []Message{
		{Src: 0, Dst: 1, Bytes: 10},
		{Src: 0, Dst: 1, Bytes: 20},
		{Src: 1, Dst: 0, Bytes: 5},
	}
	agg := Aggregate(msgs)
	if len(agg) != 2 {
		t.Fatalf("aggregated to %d messages", len(agg))
	}
	if agg[0].Bytes != 30 || agg[1].Bytes != 5 {
		t.Fatalf("aggregate = %v", agg)
	}
}

func TestPatternStats(t *testing.T) {
	m := DefaultMesh(4, 4)
	msgs := []Message{
		{Src: m.Rank(0, 0), Dst: m.Rank(0, 1), Bytes: 10},
		{Src: m.Rank(0, 0), Dst: m.Rank(1, 0), Bytes: 10},
		{Src: m.Rank(0, 0), Dst: m.Rank(0, 0), Bytes: 99}, // local: ignored
	}
	st := m.PatternStats(msgs)
	if st.Messages != 2 || st.TotalBytes != 20 || st.MaxDegree != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFatTreeTable1Ordering(t *testing.T) {
	f := DefaultFatTree(32)
	red, bc, tr, gen := f.Table1(512)
	if !(red <= bc) {
		t.Fatalf("reduction %v > broadcast %v", red, bc)
	}
	if !(bc < tr) {
		t.Fatalf("broadcast %v >= translation %v", bc, tr)
	}
	if !(tr < gen) {
		t.Fatalf("translation %v >= general %v", tr, gen)
	}
	// general communication is roughly an order of magnitude beyond
	// the hardware-assisted primitives
	if gen/bc < 10 {
		t.Fatalf("general/broadcast = %v, want >= 10", gen/bc)
	}
}

func TestFatTreeScalesWithP(t *testing.T) {
	small := DefaultFatTree(8)
	big := DefaultFatTree(512)
	if small.Reduction(64) >= big.Reduction(64) {
		t.Fatal("reduction should grow with log P")
	}
	if small.General(1, 64) >= big.General(1, 64) {
		t.Fatal("general should grow with P")
	}
}

func TestAffineCommIsPermutationAggregated(t *testing.T) {
	m := DefaultMesh(8, 8)
	cyc := distrib.Dist2D{D0: distrib.Cyclic{}, D1: distrib.Cyclic{}}
	T := intmat.New(2, 2, 1, 2, 3, 7)
	msgs := AffineComm2D(m, cyc, T, nil, 64, 64, 4)
	st := m.PatternStats(msgs)
	// CYCLIC folding of a unimodular map on a divisible grid yields a
	// physical permutation: at most one destination per sender.
	if st.MaxDegree > 1 {
		t.Fatalf("degree = %d, want 1", st.MaxDegree)
	}
	// total bytes = one element per non-local virtual processor
	if st.TotalBytes%4 != 0 || st.TotalBytes == 0 {
		t.Fatalf("bytes = %d", st.TotalBytes)
	}
}

func TestGeneralVsDecomposedTable2Shape(t *testing.T) {
	// Table 2: executing T = [[1,2],[3,7]] directly (element-wise) is
	// much slower than the vectorized L then U phases.
	m := DefaultMesh(8, 8)
	cyc := distrib.Dist2D{D0: distrib.Cyclic{}, D1: distrib.Cyclic{}}
	T := intmat.New(2, 2, 1, 2, 3, 7)
	L := intmat.New(2, 2, 1, 0, 3, 1)
	U := intmat.New(2, 2, 1, 2, 0, 1)
	if !intmat.Mul(L, U).Equal(T) {
		t.Fatal("T != L·U")
	}
	direct := m.Time(GeneralComm2D(m, cyc, T, nil, 64, 64, 64))
	tl := m.Time(AffineComm2D(m, cyc, L, nil, 64, 64, 64))
	tu := m.Time(AffineComm2D(m, cyc, U, nil, 64, 64, 64))
	if tl+tu >= direct {
		t.Fatalf("decomposition does not win: L+U = %v, direct = %v", tl+tu, direct)
	}
	if direct/(tl+tu) < 5 {
		t.Fatalf("win factor %v too small", direct/(tl+tu))
	}
}

func TestFigure8Shape(t *testing.T) {
	// grouped partition is at least as fast as BLOCK and CYCLIC(b)
	// for the U_k communication whenever k divides the virtual extent,
	// and CYCLIC is the closest standard scheme (equal at k = P).
	m := DefaultMesh(8, 8)
	n := 64
	for _, k := range []int{1, 2, 4, 8} {
		for _, eb := range []int64{16, 64, 512} {
			grp := distrib.Dist2D{D0: distrib.Grouped{K: k}, D1: distrib.Block{}}
			blk := distrib.Dist2D{D0: distrib.Block{}, D1: distrib.Block{}}
			cyb := distrib.Dist2D{D0: distrib.BlockCyclic{B: 4}, D1: distrib.Block{}}
			cy := distrib.Dist2D{D0: distrib.Cyclic{}, D1: distrib.Block{}}
			tg := m.Time(ElementaryRowComm(m, grp, int64(k), n, n, eb))
			tb := m.Time(ElementaryRowComm(m, blk, int64(k), n, n, eb))
			tcb := m.Time(ElementaryRowComm(m, cyb, int64(k), n, n, eb))
			tc := m.Time(ElementaryRowComm(m, cy, int64(k), n, n, eb))
			if tg > tb || tg > tcb {
				t.Fatalf("k=%d eb=%d: grouped %v slower than BLOCK %v or CYCLIC(4) %v", k, eb, tg, tb, tcb)
			}
			if k == 8 && (tg != 0 || tc != 0) {
				t.Fatalf("k=P: grouped %v and CYCLIC %v should be fully local", tg, tc)
			}
			if tg > tc {
				t.Fatalf("k=%d eb=%d: grouped %v slower than CYCLIC %v", k, eb, tg, tc)
			}
		}
	}
}

func TestElementaryColComm(t *testing.T) {
	m := DefaultMesh(8, 8)
	blk := distrib.Dist2D{D0: distrib.Block{}, D1: distrib.Block{}}
	msgs := ElementaryColComm(m, blk, 1, 32, 32, 8)
	st := m.PatternStats(msgs)
	if st.Messages == 0 {
		t.Fatal("no messages")
	}
	// L moves along dimension 1 only: source and destination rows equal
	for _, msg := range msgs {
		sx, _ := m.Coords(msg.Src)
		dx, _ := m.Coords(msg.Dst)
		if sx != dx {
			t.Fatalf("L communication left its row: %v", msg)
		}
	}
}

func TestBadRankPanics(t *testing.T) {
	m := DefaultMesh(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Coords(4)
}
