package engine

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/scenarios"
)

// bigSweepConfig is the generating configuration of the published
// big-sweep baseline (baselines/big-sweep.json): the m=3 suite whose
// deep nests produce the p≥2 macro-communications the per-plane
// scheduler refines.
var bigSweepConfig = scenarios.Config{Seed: 42, Random: 6, Deep: 4, Skew: true, BigMeshes: true, M: 3}

// TestMemoDeterminismBigSweep: re-running the full big-sweep suite in
// one session serves every mesh collective selection from the
// pricer's template cache, and the cached results are byte-identical
// to both the first (cold) run and a run with the cache — and
// therefore the pricer — disabled.
func TestMemoDeterminismBigSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full big-sweep re-run")
	}
	suite := scenarios.Generate(bigSweepConfig)
	s := NewSession(Options{Workers: 4})
	cold, err := s.Run(context.Background(), suite)
	if err != nil {
		t.Fatal(err)
	}
	afterCold := s.CacheStats()
	warm, err := s.Run(context.Background(), suite)
	if err != nil {
		t.Fatal(err)
	}
	afterWarm := s.CacheStats()
	s.Close()

	coldR, warmR := stripPhases(cold.Results), stripPhases(warm.Results)
	if !reflect.DeepEqual(coldR, warmR) {
		for i := range coldR {
			if !reflect.DeepEqual(coldR[i], warmR[i]) {
				t.Fatalf("scenario %d (%s):\n cold %+v\n warm %+v", i, suite[i].Name, coldR[i], warmR[i])
			}
		}
		t.Fatal("results differ")
	}
	if afterCold.SelectMisses == 0 {
		t.Error("cold run compiled no selection templates")
	}
	if hits := afterWarm.SelectHits - afterCold.SelectHits; hits == 0 {
		t.Error("warm re-run recorded no template-cache hits")
	}
	if misses := afterWarm.SelectMisses - afterCold.SelectMisses; misses != 0 {
		t.Errorf("warm re-run compiled %d selection templates, want 0", misses)
	}

	uncached := Run(suite, Options{Workers: 4, DisableCache: true})
	uncachedR := stripPhases(uncached.Results)
	if !reflect.DeepEqual(coldR, uncachedR) {
		for i := range coldR {
			if !reflect.DeepEqual(coldR[i], uncachedR[i]) {
				t.Fatalf("scenario %d (%s):\n cached %+v\n uncached %+v", i, suite[i].Name, coldR[i], uncachedR[i])
			}
		}
		t.Fatal("results differ")
	}
}

// TestBigSweepPerPlaneMacros: the big-sweep suite actually exercises
// the per-plane path — at least one scenario records a plane- or
// axis-scoped macro choice — and totals aggregate in the report.
func TestBigSweepPerPlaneMacros(t *testing.T) {
	if testing.Short() {
		t.Skip("full big-sweep run")
	}
	suite := scenarios.Generate(bigSweepConfig)
	b := Run(suite, Options{Workers: 4})
	scoped := 0
	for _, r := range b.Results {
		if r.Err != "" {
			continue
		}
		if strings.Contains(r.Collectives, "@plane") || strings.Contains(r.Collectives, "@axis") {
			scoped++
		}
	}
	if scoped == 0 {
		t.Error("no big-sweep scenario recorded a per-plane or per-line macro choice")
	}
}

// TestPatternTierCounters: the pricer's mesh-pattern tier counts its
// own traffic without moving the selection counters. A fresh session
// over the big-sweep suite reports the selection-template traffic it
// always has (one lookup per mesh macro selection), compiles every
// distinct pattern once, and a second run over the same suite is
// served entirely from the compiled patterns with identical model
// times.
func TestPatternTierCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("full big-sweep run")
	}
	suite := scenarios.Generate(bigSweepConfig)
	s := NewSession(Options{Workers: 2})
	defer s.Close()
	first, err := s.Run(context.Background(), suite)
	if err != nil {
		t.Fatal(err)
	}
	cold := s.CacheStats()
	if cold.SelectHits != 133 || cold.SelectMisses != 56 || cold.CompiledTemplates != 56 {
		t.Errorf("selection tier: %d hits, %d misses, %d templates; want 133, 56, 56",
			cold.SelectHits, cold.SelectMisses, cold.CompiledTemplates)
	}
	if cold.CompiledPatternMisses == 0 || cold.CompiledPatternHits == 0 {
		t.Errorf("pattern tier saw %d hits, %d misses; want both non-zero",
			cold.CompiledPatternHits, cold.CompiledPatternMisses)
	}
	if uint64(cold.CompiledPatterns) != cold.CompiledPatternMisses {
		t.Errorf("%d patterns held after %d misses", cold.CompiledPatterns, cold.CompiledPatternMisses)
	}
	second, err := s.Run(context.Background(), suite)
	if err != nil {
		t.Fatal(err)
	}
	warm := s.CacheStats()
	if warm.CompiledPatternMisses != cold.CompiledPatternMisses {
		t.Errorf("second run compiled %d patterns, want 0", warm.CompiledPatternMisses-cold.CompiledPatternMisses)
	}
	if warm.CompiledPatternHits == cold.CompiledPatternHits {
		t.Error("second run recorded no pattern hits")
	}
	for i := range first.Results {
		if a, b := first.Results[i].ModelTime, second.Results[i].ModelTime; a != b {
			t.Errorf("scenario %d (%s): model time %v, then %v", i, suite[i].Name, a, b)
		}
	}
}
