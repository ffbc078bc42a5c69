package engine

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/scenarios"
)

func suite(t testing.TB) []scenarios.Scenario {
	t.Helper()
	s := scenarios.Generate(scenarios.Config{Seed: 7})
	if len(s) < 100 {
		t.Fatalf("default suite has %d scenarios, want ≥ 100", len(s))
	}
	return s
}

// stripPhases returns a copy of rs with the run-dependent phase
// attribution cleared: determinism tests compare everything except
// wall-clock timings, which legitimately differ between runs.
func stripPhases(rs []Result) []Result {
	out := make([]Result, len(rs))
	for i, r := range rs {
		r.Phases = nil
		out[i] = r
	}
	return out
}

// TestParallelMatchesSequential: a parallel run must be byte-identical
// to a sequential run of the same batch — same per-scenario classes,
// model times and errors, in input order.
func TestParallelMatchesSequential(t *testing.T) {
	s := suite(t)
	seq := Run(s, Options{Workers: 1})
	par := Run(s, Options{Workers: 8})
	seqR, parR := stripPhases(seq.Results), stripPhases(par.Results)
	if !reflect.DeepEqual(seqR, parR) {
		for i := range seqR {
			if !reflect.DeepEqual(seqR[i], parR[i]) {
				t.Fatalf("scenario %d (%s):\n sequential %+v\n parallel   %+v",
					i, s[i].Name, seqR[i], parR[i])
			}
		}
		t.Fatal("results differ")
	}
	if seq.ClassTotals != par.ClassTotals || seq.TotalModelTime != par.TotalModelTime || seq.Errors != par.Errors {
		t.Fatalf("aggregates differ: seq %+v par %+v", seq, par)
	}
}

// TestCacheConsistency: enabling the memo cache must not change any
// plan — classes, model times and errors are identical with and
// without it.
func TestCacheConsistency(t *testing.T) {
	s := suite(t)
	cached := Run(s, Options{Workers: 4})
	uncached := Run(s, Options{Workers: 4, DisableCache: true})
	cachedR, uncachedR := stripPhases(cached.Results), stripPhases(uncached.Results)
	if !reflect.DeepEqual(cachedR, uncachedR) {
		for i := range cachedR {
			if !reflect.DeepEqual(cachedR[i], uncachedR[i]) {
				t.Fatalf("scenario %d (%s):\n cached   %+v\n uncached %+v",
					i, s[i].Name, cachedR[i], uncachedR[i])
			}
		}
		t.Fatal("results differ")
	}
	if uncached.Cache != (api.CacheStats{}) {
		t.Fatalf("disabled cache reported stats %+v", uncached.Cache)
	}
}

// TestCacheReuse: a suite that crosses each nest with several machine
// variants must hit the plan cache for every variant after the first,
// and the kernel tier must see repeated matrices too.
func TestCacheReuse(t *testing.T) {
	s := suite(t)
	b := Run(s, Options{Workers: 4})
	nMachines := 4 // default config crosses every program with 4 machines
	wantHits := uint64(len(s) - len(s)/nMachines)
	if b.Cache.PlanHits != wantHits {
		t.Errorf("plan hits = %d, want %d (suite of %d over %d machine variants)",
			b.Cache.PlanHits, wantHits, len(s), nMachines)
	}
	if b.Cache.KernelHits == 0 {
		t.Error("kernel tier saw no hits on the default suite")
	}
	if b.Cache.Entries == 0 {
		t.Error("cache is empty after the run")
	}
}

// TestAggregates: the batch totals must be the sums of the
// per-scenario results.
func TestAggregates(t *testing.T) {
	b := Run(suite(t), Options{Workers: 4})
	var classes [4]int
	var total float64
	errs := 0
	for _, r := range b.Results {
		if r.Err != "" {
			errs++
			continue
		}
		for c, n := range r.Classes {
			classes[c] += n
		}
		total += r.ModelTime
	}
	if classes != b.ClassTotals || total != b.TotalModelTime || errs != b.Errors {
		t.Fatalf("aggregates %v/%v/%d, recomputed %v/%v/%d",
			b.ClassTotals, b.TotalModelTime, b.Errors, classes, total, errs)
	}
	if classes[core.Local] == 0 {
		t.Error("no local communications in the default suite")
	}
	if b.TotalModelTime <= 0 {
		t.Error("non-positive total model time")
	}
}

// TestReport: the report mentions the headline aggregates.
func TestReport(t *testing.T) {
	b := Run(suite(t), Options{Workers: 2})
	rep := b.Report()
	for _, want := range []string{"scenarios", "local", "cache", "most expensive"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

// TestErrorIsolation: a scenario that fails to optimize is reported
// in place without disturbing its neighbours — the rest of the batch
// must come out exactly as it would without the bad scenario.
func TestErrorIsolation(t *testing.T) {
	s := scenarios.Generate(scenarios.Config{Seed: 7, Random: 2})
	base := Run(s, Options{Workers: 4})
	// An invalid target dimension fails deterministically in the
	// access-graph build, without panicking the pool; the mangled M
	// also keeps its PlanKey from colliding with the real suite.
	bad := s[0]
	bad.M = 0
	bad.Name = "bad/m0"
	batch := append([]scenarios.Scenario{bad}, s...)
	b := Run(batch, Options{Workers: 4})
	if b.Results[0].Err == "" {
		t.Fatal("m=0 scenario did not error")
	}
	if b.Errors != base.Errors+1 {
		t.Errorf("errors = %d, want %d", b.Errors, base.Errors+1)
	}
	withBad, without := stripPhases(b.Results), stripPhases(base.Results)
	for i := range s {
		if !reflect.DeepEqual(withBad[i+1], without[i]) {
			t.Errorf("scenario %d disturbed by the failing neighbour:\n with    %+v\n without %+v",
				i, withBad[i+1], without[i])
		}
	}
}
