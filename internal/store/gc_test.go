package store

import (
	"os"
	"path/filepath"
	"repro/internal/compiled"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/engine"
)

// seedPlans writes n distinct plan files and returns their keys.
func seedPlans(t *testing.T, s *Store, n int) []string {
	t.Helper()
	keys := make([]string, n)
	for i := range keys {
		keys[i] = "key-" + string(rune('a'+i%26)) + "-" + filepath.Base(t.Name()) + "-" + time.Now().Format("150405") + "-" + string(rune('0'+i/26))
		s.PutPlan(keys[i], []engine.PlanRecord{{PlanShapeRec: compiled.PlanShapeRec{Class: 0}}}, "")
	}
	if got := countPlans(t, s); got != n {
		t.Fatalf("seeded %d plan files, want %d", got, n)
	}
	return keys
}

func countPlans(t *testing.T, s *Store) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(filepath.Join(s.root, "plans"), func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && filepath.Ext(path) == ".json" {
			n++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// backdate shifts every plan file's mtime into the past.
func backdate(t *testing.T, s *Store, by time.Duration) {
	t.Helper()
	old := time.Now().Add(-by)
	err := filepath.WalkDir(filepath.Join(s.root, "plans"), func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		return os.Chtimes(path, old, old)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGCAge: files idle past MaxAge are removed, fresh ones kept, and
// removed plans simply miss (the engine would recompute).
func TestGCAge(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keys := seedPlans(t, s, 6)
	backdate(t, s, 48*time.Hour)
	fresh := "fresh-key"
	s.PutPlan(fresh, []engine.PlanRecord{{PlanShapeRec: compiled.PlanShapeRec{Class: 1}}}, "")

	res, err := s.GC(GCOptions{MaxAge: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if res.RemovedAge != len(keys) || res.Kept != 1 {
		t.Errorf("GC removed %d by age, kept %d; want %d removed, 1 kept (%+v)",
			res.RemovedAge, res.Kept, len(keys), res)
	}
	if res.BytesFreed <= 0 {
		t.Errorf("BytesFreed = %d, want > 0", res.BytesFreed)
	}
	if _, _, ok := s.GetPlan(keys[0]); ok {
		t.Error("aged-out plan still readable")
	}
	if _, _, ok := s.GetPlan(fresh); !ok {
		t.Error("fresh plan was collected")
	}
}

// TestGCLRU: beyond MaxPlans the least recently *used* files go
// first — a GetPlan hit refreshes a file's recency.
func TestGCLRU(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keys := seedPlans(t, s, 8)
	backdate(t, s, time.Hour)
	// Touch two keys through the read path: they must survive.
	for _, k := range keys[:2] {
		if _, _, ok := s.GetPlan(k); !ok {
			t.Fatalf("seeded key %q unreadable", k)
		}
	}

	res, err := s.GC(GCOptions{MaxPlans: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.RemovedLRU != 5 || res.Kept != 3 {
		t.Errorf("GC removed %d by LRU, kept %d; want 5 removed, 3 kept", res.RemovedLRU, res.Kept)
	}
	for _, k := range keys[:2] {
		if _, _, ok := s.GetPlan(k); !ok {
			t.Errorf("recently used key %q was collected", k)
		}
	}
}

// TestGCDryRunAndTemp: DryRun counts without deleting or moving the
// cumulative totals; stale temp files are reclaimed, young ones kept;
// a real sweep's removals all land in GCTotals.
func TestGCDryRunAndTemp(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	seedPlans(t, s, 4)
	backdate(t, s, 48*time.Hour)

	shard := filepath.Join(s.root, "plans", "zz")
	if err := os.MkdirAll(shard, 0o755); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(shard, ".tmp-stale")
	young := filepath.Join(shard, ".tmp-young")
	for _, p := range []string{stale, young} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}

	dry, err := s.GC(GCOptions{MaxAge: 24 * time.Hour, DryRun: true})
	if err != nil {
		t.Fatal(err)
	}
	if dry.RemovedAge != 4 || dry.RemovedTemp != 1 {
		t.Errorf("dry run reported %d/%d age/temp removals, want 4/1", dry.RemovedAge, dry.RemovedTemp)
	}
	if got := countPlans(t, s); got != 4 {
		t.Errorf("dry run deleted files: %d plan files left, want 4", got)
	}
	if tot := s.GCTotals(); tot != (GCTotals{}) {
		t.Errorf("dry run moved the GC totals: %+v", tot)
	}

	wet, err := s.GC(GCOptions{MaxAge: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if wet.Removed() != 5 {
		t.Errorf("wet run removed %d files, want 5", wet.Removed())
	}
	want := GCTotals{Sweeps: 1, RemovedAge: 4, RemovedTemp: 1, BytesFreed: wet.BytesFreed}
	if tot := s.GCTotals(); tot != want || wet.BytesFreed <= 0 {
		t.Errorf("GC totals %+v after the wet run %+v, want %+v", tot, wet, want)
	}
	if _, err := os.Stat(young); err != nil {
		t.Error("young temp file was reclaimed")
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale temp file survived")
	}
}

// TestSnapshotSpecRoundTrip: a snapshot saved with a spec loads with
// it intact, so the server can resolve re-runs by name.
func TestSnapshotSpecRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	snap := &Snapshot{
		Scenarios: 1,
		Results:   []engine.Result{{Name: "x"}},
		Spec:      &api.BatchSpec{Seed: 9, Random: 2, NoExamples: true},
	}
	if _, err := s.SaveSnapshot("withspec", snap); err != nil {
		t.Fatal(err)
	}
	got, err := s.LoadSnapshot("withspec")
	if err != nil {
		t.Fatal(err)
	}
	if got.Spec == nil || *got.Spec != *snap.Spec {
		t.Errorf("loaded spec %+v, want %+v", got.Spec, snap.Spec)
	}
}
