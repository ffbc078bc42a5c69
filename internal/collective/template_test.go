package collective

import (
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
