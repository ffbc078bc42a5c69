package engine

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/compiled"
	"repro/internal/core"
	"repro/internal/intmat"
)

// TestPlanRecordGolden pins the JSON form of the plan records the disk
// tier persists: shape fields (class, factors, dataflow, macro axes)
// followed by the compute-cost attribution on the first record. Stores
// written by earlier builds must keep decoding, and equal plans must
// keep encoding to equal bytes.
func TestPlanRecordGolden(t *testing.T) {
	ent := planEntry{
		plans: []compiled.PlanShape{
			{
				Class:        core.Decomposed,
				Vectorizable: true,
				Factors:      []*intmat.Mat{intmat.New(2, 2, 1, 0, 3, 1), intmat.New(2, 2, 1, -2, 0, 1)},
				Dataflow:     intmat.New(2, 2, -5, -2, 3, 1),
			},
			{Class: core.MacroComm, MacroReduction: true, MacroDims: []int{0, 2}},
			{Class: core.Local},
		},
		computeUs: 812.5,
		alignUs:   301.25,
		kernelUs:  96.5,
		kernelOps: 14,
	}
	recs, errMsg := toRecords(ent)
	got, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	const want = `[{"class":2,"vec":true,` +
		`"factors":[{"r":2,"c":2,"v":[1,0,3,1]},{"r":2,"c":2,"v":[1,-2,0,1]}],` +
		`"dataflow":{"r":2,"c":2,"v":[-5,-2,3,1]},` +
		`"compute_us":812.5,"align_us":301.25,"kernel_us":96.5,"kernel_ops":14},` +
		`{"class":1,"red":true,"mdims":[0,2]},` +
		`{"class":0}]`
	if string(got) != want {
		t.Fatalf("plan records encode as\n  %s\nwant\n  %s", got, want)
	}

	var back []PlanRecord
	if err := json.Unmarshal([]byte(want), &back); err != nil {
		t.Fatal(err)
	}
	dec, err := fromRecords(back, errMsg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, ent) {
		t.Fatalf("decoded entry differs:\n  got  %+v\n  want %+v", dec, ent)
	}
}
