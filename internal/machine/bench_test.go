package machine

import (
	"fmt"
	"testing"

	"repro/internal/distrib"
	"repro/internal/intmat"
)

// BenchmarkMeshTime prices the direct (unaggregated) transpose of a
// 32x32 cyclic array — the general-plan pattern the compiled tier
// packs most — on a square and on a long, thin mesh, reporting the
// model time alongside the packer's wall clock.
func BenchmarkMeshTime(b *testing.B) {
	cyc := distrib.Dist2D{D0: distrib.Cyclic{}, D1: distrib.Cyclic{}}
	transpose := intmat.New(2, 2, 0, 1, 1, 0)
	for _, sh := range [][2]int{{16, 16}, {64, 2}} {
		m := DefaultMesh(sh[0], sh[1])
		msgs := GeneralComm2D(m, cyc, transpose, nil, 32, 32, 64)
		b.Run(fmt.Sprintf("mesh%dx%d", sh[0], sh[1]), func(b *testing.B) {
			b.ReportAllocs()
			m.Time(msgs) // warm the evaluator pool: even -benchtime=1x measures a warm call
			b.ResetTimer()
			var t float64
			for i := 0; i < b.N; i++ {
				t = m.Time(msgs)
			}
			b.ReportMetric(t, "model-µs")
		})
	}
}
