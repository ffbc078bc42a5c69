package machine

import (
	"repro/internal/distrib"
	"repro/internal/intmat"
)

// AffineComm2D builds the *vectorized* message pattern of the affine
// communication (i, j) → T·(i, j)ᵗ + off on an n0×n1 virtual grid
// (toroidal virtual index space: destination coordinates are taken
// modulo the grid extents) folded onto the mesh by dist. Every
// virtual processor contributes elemBytes; messages between the same
// physical pair are combined into one.
//
// Vectorization models an elementary (axis-parallel) communication,
// whose regular stride pattern the runtime can aggregate; use
// GeneralComm2D for the direct execution of a general affine
// communication, which it cannot.
func AffineComm2D(m *Mesh2D, dist distrib.Dist2D, t *intmat.Mat, off []int64, n0, n1 int, elemBytes int64) []Message {
	if t.Rows() != 2 || t.Cols() != 2 {
		panic("machine: AffineComm2D needs a 2x2 data-flow matrix")
	}
	if len(off) == 0 {
		off = []int64{0, 0}
	}
	msgs := make([]Message, 0, n0*n1)
	for i := 0; i < n0; i++ {
		for j := 0; j < n1; j++ {
			di := mod(t.At(0, 0)*int64(i)+t.At(0, 1)*int64(j)+off[0], int64(n0))
			dj := mod(t.At(1, 0)*int64(i)+t.At(1, 1)*int64(j)+off[1], int64(n1))
			sx, sy := dist.Place(i, j, n0, n1, m.P, m.Q)
			dx, dy := dist.Place(int(di), int(dj), n0, n1, m.P, m.Q)
			msgs = append(msgs, Message{
				Src:   m.Rank(sx, sy),
				Dst:   m.Rank(dx, dy),
				Bytes: elemBytes,
			})
		}
	}
	return Aggregate(msgs)
}

// GeneralComm2D builds the direct, element-wise execution of a
// general affine communication: one message per virtual processor,
// with no pairwise aggregation. This is how a 1990s runtime executes
// an irregular pattern it cannot derive a closed-form schedule for —
// the paper's motivation for decomposing general communications
// ("better have several simple communications than a complicated
// one", Section 5.1).
func GeneralComm2D(m *Mesh2D, dist distrib.Dist2D, t *intmat.Mat, off []int64, n0, n1 int, elemBytes int64) []Message {
	if t.Rows() != 2 || t.Cols() != 2 {
		panic("machine: GeneralComm2D needs a 2x2 data-flow matrix")
	}
	if len(off) == 0 {
		off = []int64{0, 0}
	}
	msgs := make([]Message, 0, n0*n1)
	for i := 0; i < n0; i++ {
		for j := 0; j < n1; j++ {
			di := mod(t.At(0, 0)*int64(i)+t.At(0, 1)*int64(j)+off[0], int64(n0))
			dj := mod(t.At(1, 0)*int64(i)+t.At(1, 1)*int64(j)+off[1], int64(n1))
			sx, sy := dist.Place(i, j, n0, n1, m.P, m.Q)
			dx, dy := dist.Place(int(di), int(dj), n0, n1, m.P, m.Q)
			msgs = append(msgs, Message{
				Src:   m.Rank(sx, sy),
				Dst:   m.Rank(dx, dy),
				Bytes: elemBytes,
			})
		}
	}
	return msgs
}

// ElementaryRowComm builds the pattern of the elementary
// communication U(k): (i, j) → (i + k·j, j): data moves only along
// dimension 0, within the k residue classes of i mod k.
func ElementaryRowComm(m *Mesh2D, dist distrib.Dist2D, k int64, n0, n1 int, elemBytes int64) []Message {
	u := intmat.New(2, 2, 1, k, 0, 1)
	return AffineComm2D(m, dist, u, nil, n0, n1, elemBytes)
}

// ElementaryColComm builds the pattern of L(l): (i, j) → (i, j + l·i).
func ElementaryColComm(m *Mesh2D, dist distrib.Dist2D, l int64, n0, n1 int, elemBytes int64) []Message {
	lm := intmat.New(2, 2, 1, 0, l, 1)
	return AffineComm2D(m, dist, lm, nil, n0, n1, elemBytes)
}

func mod(a, n int64) int64 {
	r := a % n
	if r < 0 {
		r += n
	}
	return r
}
