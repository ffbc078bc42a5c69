package store

import (
	"bytes"
	"reflect"
	"repro/internal/compiled"
	"testing"

	"repro/internal/engine"
)

// TestExportApplyRoundTrip: a plan exported by content address from
// one store applies into another and serves identically — the
// cluster replication path.
func TestExportApplyRoundTrip(t *testing.T) {
	src, dst := openTemp(t), openTemp(t)
	key := "m=2|opts={}|for i {\n a[i]=b[i]\n}"
	recs := []engine.PlanRecord{{PlanShapeRec: compiled.PlanShapeRec{Class: 1, Vectorizable: true}}}
	src.PutPlan(key, recs, "")

	addr := PlanAddr(key)
	gotKey, gotRecs, errMsg, ok := src.ExportPlan(addr)
	if !ok || gotKey != key || errMsg != "" || !reflect.DeepEqual(gotRecs, recs) {
		t.Fatalf("export: ok=%v key=%q err=%q recs=%+v", ok, gotKey, errMsg, gotRecs)
	}
	if err := dst.ApplyPlan(gotKey, gotRecs, errMsg); err != nil {
		t.Fatal(err)
	}
	dstRecs, _, ok := dst.GetPlan(key)
	if !ok || !reflect.DeepEqual(dstRecs, recs) {
		t.Fatalf("applied plan does not serve: ok=%v recs=%+v", ok, dstRecs)
	}
}

// TestExportPlanRejects: invalid addresses, absent plans, and moved
// files (address/key mismatch) are all misses, never wrong data.
func TestExportPlanRejects(t *testing.T) {
	st := openTemp(t)
	for _, addr := range []string{"", "zz", "../../etc/passwd", PlanAddr("never stored")} {
		if _, _, _, ok := st.ExportPlan(addr); ok {
			t.Errorf("ExportPlan(%q) succeeded", addr)
		}
	}
	// A present plan exports fine; a different key's address stays a
	// miss even with files on disk.
	st.PutPlan("real key", []engine.PlanRecord{{PlanShapeRec: compiled.PlanShapeRec{Class: 0}}}, "")
	if _, _, _, ok := st.ExportPlan(PlanAddr("real key")); !ok {
		t.Error("stored plan did not export")
	}
	if _, _, _, ok := st.ExportPlan(PlanAddr("other key")); ok {
		t.Error("absent address served a plan")
	}
}

// TestApplyPlanValidates: undecodable peer payloads are rejected at
// apply time, not persisted.
func TestApplyPlanValidates(t *testing.T) {
	st := openTemp(t)
	if err := st.ApplyPlan("", nil, ""); err == nil {
		t.Error("empty key accepted")
	}
	if err := st.ApplyPlan("k", []engine.PlanRecord{{PlanShapeRec: compiled.PlanShapeRec{Class: 99}}}, ""); err == nil {
		t.Error("invalid class accepted")
	}
	if _, _, ok := st.GetPlan("k"); ok {
		t.Error("rejected plan was persisted anyway")
	}
	if err := st.ApplyPlan("k", []engine.PlanRecord{{PlanShapeRec: compiled.PlanShapeRec{Class: 1}}}, ""); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}

// TestSnapshotRawRoundTrip: raw snapshot replication preserves the
// exact bytes (the byte-identical re-run guarantee) and rejects
// non-snapshot payloads and bad names.
func TestSnapshotRawRoundTrip(t *testing.T) {
	src, dst := openTemp(t), openTemp(t)
	snap := &Snapshot{Scenarios: 1, Results: []engine.Result{{Name: "s"}}}
	if _, err := src.SaveSnapshot("suite", snap); err != nil {
		t.Fatal(err)
	}
	raw, err := src.GetSnapshotRaw("suite")
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.PutSnapshotRaw("suite", raw); err != nil {
		t.Fatal(err)
	}
	got, err := dst.GetSnapshotRaw("suite")
	if err != nil || !bytes.Equal(got, raw) {
		t.Fatalf("replicated snapshot bytes differ (err=%v)", err)
	}
	if _, err := dst.LoadSnapshot("suite"); err != nil {
		t.Fatalf("replicated snapshot does not load: %v", err)
	}
	if err := dst.PutSnapshotRaw("junk", []byte("not json")); err == nil {
		t.Error("non-snapshot payload accepted")
	}
	if err := dst.PutSnapshotRaw("../escape", raw); err == nil {
		t.Error("bad snapshot name accepted")
	}
	if _, err := dst.GetSnapshotRaw("../escape"); err == nil {
		t.Error("bad snapshot name readable")
	}
}
