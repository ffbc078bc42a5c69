package collective

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/machine"
)

// templateBytes cross payloads from below the chain segment sizes to
// scatter-allgather territory.
var templateBytes = []int64{1, 3, 16, 64, 1024, 65536, 1 << 20, 1 << 24}

func requireSameChoice(t *testing.T, ctxt string, want, got Choice) {
	t.Helper()
	if want != got {
		t.Fatalf("%s:\n  select: %+v\n  template: %+v", ctxt, want, got)
	}
}

// TestMeshTemplateOutOfRangeDim mirrors SelectMeshDim's fallback for
// virtual axes with no mesh extent.
func TestMeshTemplateOutOfRangeDim(t *testing.T) {
	m := machine.DefaultMesh(4, 4)
	tmpl := NewMeshDimTemplate(m, Broadcast, 3, "")
	requireSameChoice(t, "dim3", SelectMeshDim(m, Broadcast, 3, 4096, ""), tmpl.Eval(m, 4096))
}

// TestMeshTemplateEvalAllocs is the warm-evaluator alloc-regression
// guard: a compiled template must price any payload without
// allocating.
func TestMeshTemplateEvalAllocs(t *testing.T) {
	m := machine.DefaultMesh(16, 16)
	tmpl := NewMeshMacroTemplate(m, Reduction, []int{0, 1}, "")
	bytesIn := templateBytes
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		tmpl.Eval(m, bytesIn[i%len(bytesIn)])
		i++
	}); n > 0 {
		t.Fatalf("MeshTemplate.Eval allocates %.1f times per run, want 0", n)
	}
}

// TestCompileSeqSharedRounds: compileSeq's reuse of a round equal to
// the one executed before it changes nothing. For the ring allgather
// and every chain segmentation, over total and per-dimension line
// sets in both orientations, the shared compilation must equal packing
// every round on its own with compileRound and fold bit-equal at every
// payload — and every repeated round must actually be reused.
func TestCompileSeqSharedRounds(t *testing.T) {
	reusedBy := map[string]int{}
	for _, sh := range [][2]int{{4, 4}, {2, 16}, {64, 2}, {16, 16}} {
		m := machine.DefaultMesh(sh[0], sh[1])
		for _, ls := range [][][]int{totalLine(m, 0), dimLines(m, 0), dimLines(m, 1)} {
			for name, emit := range map[string]func(*machine.Mesh2D, [][]int) []shapeVariant{
				"scatter-allgather": shapeScatterAllgather, "chain": shapeChain,
			} {
				for vi, v := range emit(m, ls) {
					for _, p := range []Pattern{Broadcast, Reduction} {
						ctxt := fmt.Sprintf("%dx%d %d lines %s variant %d %s", m.P, m.Q, len(ls), name, vi, p)
						shared := newEvaluator(m).compileSeq(v.rounds, p)
						ref := make([]pricedRound, len(v.rounds))
						repeats, reused := 0, 0
						for k := range v.rounds {
							i, prev := k, k-1
							if p == Reduction {
								i, prev = len(v.rounds)-1-k, len(v.rounds)-k
							}
							ref[k] = newEvaluator(m).compileRound(v.rounds[i], p == Reduction)
							if k > 0 && reflect.DeepEqual(v.rounds[i], v.rounds[prev]) {
								repeats++
								if &shared[k].groups[0] == &shared[k-1].groups[0] {
									reused++
								}
							}
						}
						if !reflect.DeepEqual(shared, ref) {
							t.Fatalf("%s: shared compilation differs from per-round packing", ctxt)
						}
						for _, b := range templateBytes {
							if got, want := foldRounds(shared, m, b, 0), foldRounds(ref, m, b, 0); got != want {
								t.Fatalf("%s bytes=%d: shared rounds fold to %v, per-round %v", ctxt, b, got, want)
							}
						}
						if reused != repeats {
							t.Errorf("%s: %d of %d repeated rounds reused", ctxt, reused, repeats)
						}
						reusedBy[name] += reused
					}
				}
			}
		}
	}
	for _, name := range []string{"scatter-allgather", "chain"} {
		if reusedBy[name] == 0 {
			t.Errorf("no %s round was ever reused", name)
		}
	}
}
