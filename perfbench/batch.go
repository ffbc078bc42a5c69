package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/scenarios"
	"repro/internal/store"
	"repro/internal/trace"
)

// bigSweepConfig is the generator config of the published big-sweep
// suite (baselines/big-sweep.json at seed 42): 20 nests × 10 machines,
// including the 16×16, 64×2 and 2×64 meshes.
func bigSweepConfig(seed int64) scenarios.Config {
	return scenarios.Config{Seed: seed, Random: 6, Deep: 4, Skew: true, BigMeshes: true, M: 3}
}

// freshNestsConfig generates 360 distinct nests on one fat tree, so
// every scenario of a cold session misses the plan cache.
func freshNestsConfig(seed int64) scenarios.Config {
	return scenarios.Config{Seed: seed, Random: 300, Deep: 60, NoExamples: true, M: 3,
		Machines: []scenarios.MachineSpec{{Kind: scenarios.FatTree, P: 32}}}
}

// baselineSeed is the seed of baselines/big-sweep.json.
const baselineSeed = 42

// outcome is the checked projection of one engine result: the fields
// the published baseline records.
type outcome struct {
	Classes      [4]int
	ModelTime    float64
	Vectorizable int
	Collectives  string
	Err          string
}

func outcomeOf(r engine.Result) outcome {
	return outcome{r.Classes, r.ModelTime, r.Vectorizable, r.Collectives, r.Err}
}

// bigSweepSuites is the number of big-sweep suites one run measures:
// the published preset at the run's seed plus preset suites at seeds
// derived from it. Random nests differ a lot in cost, so one suite per
// run would make the figures depend on the seed more than on the
// program.
const bigSweepSuites = 16

// freshNestsSuites is the number of fresh-nests suites one run
// measures, for the same reason: the cost of 360 random nests still
// varies by about 7% between seeds.
const freshNestsSuites = 4

// referenceSample is the number of scenarios per big-sweep suite that
// are checked against a cache-disabled session (every scenario of the
// baseline-seed suite is checked against the published baseline).
const referenceSample = 25

// suiteSeed is the generator seed of suite j of a run at seed: the
// seed itself for the first suite, then seeds no other run's first
// suites use.
func suiteSeed(seed int64, j int) int64 {
	if j == 0 {
		return seed
	}
	return seed*1_000_003 + int64(j)
}

// batchWorkload runs generated suites through engine sessions. One
// round of big-sweep is one pass over one of its suites through a
// fresh session; one round of fresh-nests is a cold session over an
// empty store followed by a second session restarted on that store.
type batchWorkload struct {
	o       options
	cfg     func(int64) scenarios.Config
	nSuites int
	restart bool
	sample  int

	suites [][]scenarios.Scenario
	// want holds the reference outcome of each checked scenario, by
	// suite and index; first holds each suite's outcomes from its first
	// measured pass, which every later pass must repeat.
	want  []map[int]outcome
	first [][]outcome
	// last holds each suite's results of the latest pass, for the
	// traced replay.
	last [][]engine.Result
	// tmp holds the fresh-nests store directories.
	tmp string
}

func newBigSweep(o options) workload {
	return &batchWorkload{o: o, cfg: bigSweepConfig, nSuites: bigSweepSuites, sample: referenceSample}
}

func newFreshNests(o options) workload {
	return &batchWorkload{o: o, cfg: freshNestsConfig, nSuites: freshNestsSuites, restart: true}
}

func (w *batchWorkload) setup(ctx context.Context) (time.Duration, error) {
	t0 := time.Now()
	w.suites = make([][]scenarios.Scenario, w.nSuites)
	for j := range w.suites {
		w.suites[j] = scenarios.Generate(w.cfg(suiteSeed(w.o.seed, j)))
	}
	generate := time.Since(t0)
	w.want, w.first = nil, make([][]outcome, w.nSuites)
	w.last = make([][]engine.Result, w.nSuites)
	if w.restart {
		dir, err := os.MkdirTemp("", "perfbench-store-")
		if err != nil {
			return generate, err
		}
		w.tmp = dir
	}
	// One unmeasured pass over the first suite warms the process: heap
	// growth, page faults, lazily built tables.
	var rs roundStats
	return generate, w.pass(ctx, nil, 0, &rs)
}

func (w *batchWorkload) teardown() {
	if w.tmp != "" {
		os.RemoveAll(w.tmp)
		w.tmp = ""
		// Pay for the deletions now rather than in a later round or run.
		syscall.Sync()
	}
}

// reference computes the expected outcomes: the published baseline for
// the big-sweep suite at its seed, and a cache-disabled session for a
// seeded sample of every other suite (all of fresh-nests).
func (w *batchWorkload) reference(ctx context.Context) error {
	rng := rand.New(rand.NewSource(w.o.seed))
	w.want = make([]map[int]outcome, len(w.suites))
	var batch []scenarios.Scenario
	type at struct{ suite, idx int }
	var where []at
	for j, suite := range w.suites {
		w.want[j] = map[int]outcome{}
		if !w.restart && suiteSeed(w.o.seed, j) == baselineSeed {
			want, err := loadBaseline(filepath.Join(w.o.root, "baselines", "big-sweep.json"))
			if err != nil {
				return err
			}
			if len(want) != len(suite) {
				return fmt.Errorf("baseline has %d scenarios, suite %d", len(want), len(suite))
			}
			for i, o := range want {
				w.want[j][i] = o
			}
			continue
		}
		idx := rng.Perm(len(suite))
		if w.sample > 0 && w.sample < len(idx) {
			idx = idx[:w.sample]
		}
		for _, i := range idx {
			batch = append(batch, suite[i])
			where = append(where, at{j, i})
		}
	}
	s := engine.NewSession(engine.Options{Workers: poolSize(), DisableCache: true})
	defer s.Close()
	b, err := s.Run(ctx, batch)
	if err != nil {
		return err
	}
	for k, r := range b.Results {
		w.want[where[k].suite][where[k].idx] = outcomeOf(r)
	}
	return nil
}

// loadBaseline reads the per-scenario outcomes of a store snapshot.
func loadBaseline(path string) ([]outcome, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap struct {
		Results []outcome `json:"results"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return snap.Results, nil
}

func (w *batchWorkload) snapshot(context.Context) (counters, error) { return counters{}, nil }

func (w *batchWorkload) cycle() int { return len(w.suites) }

// round i is one pass over suite i mod cycle.
func (w *batchWorkload) round(ctx context.Context, tr *tracer, i int) (roundStats, error) {
	var rs roundStats
	if w.restart {
		// Start every round with no write-back pending from the last
		// one, as every round starts with a clean heap.
		syscall.Sync()
	}
	t0 := time.Now()
	if err := w.pass(ctx, tr, i%len(w.suites), &rs); err != nil {
		return rs, err
	}
	rs.wall = time.Since(t0)
	return rs, nil
}

// pass runs suite j once — for fresh-nests, cold on an empty store and
// then restarted on it — and adds its outcome to rs.
func (w *batchWorkload) pass(ctx context.Context, tr *tracer, j int, rs *roundStats) error {
	var st *store.Store
	var ps engine.PlanStore
	if w.restart {
		// Round directories are removed with the rest at teardown:
		// deleting thousands of files between rounds would slow the
		// next round's file creation on the same disk.
		dir, err := os.MkdirTemp(w.tmp, "round-")
		if err != nil {
			return err
		}
		if st, err = store.Open(dir); err != nil {
			return err
		}
		ps = planStore{st}
		if tr != nil {
			ps = timedStore{s: st, tr: tr}
		}
	}
	halves := []string{"bench.pass"}
	if w.restart {
		halves = []string{"bench.cold", "bench.restart"}
	}
	for _, name := range halves {
		hctx, root := ctx, (*trace.Span)(nil)
		if tr != nil {
			hctx, root = tr.root(ctx, name)
			rs.roots = append(rs.roots, root.TraceID().String())
		}
		s := engine.NewSession(engine.Options{Workers: poolSize(), Store: ps})
		b, err := s.Run(hctx, w.suites[j])
		rs.delta = rs.delta.add(sessionCounters(s))
		pool := s.PoolStats()
		s.Close()
		root.End()
		if err != nil {
			return err
		}
		rs.items += len(b.Results)
		rs.attempted += len(b.Results)
		rs.failed += w.check(j, b.Results)
		// The pool's own counters must account for every scenario.
		if pool.ScenariosDone != uint64(len(b.Results)) || pool.ScenarioErrors != 0 {
			rs.failed++
		}
		for _, r := range b.Results {
			if r.Phases == nil {
				continue
			}
			rs.scenarioMs = append(rs.scenarioMs, r.Phases.TotalUs/1e3)
			if r.Phases.PlanSource == "compute" {
				rs.kernelOps += r.Phases.KernelOps
			}
		}
		w.last[j] = b.Results
	}
	if st != nil {
		rs.delta.planPuts += float64(st.Stats().PlanPuts)
	}
	return nil
}

// check counts the results of suite j that failed, differ from the
// reference, or differ from the suite's first measured pass. Set-up
// passes run before the reference exists and are not checked.
func (w *batchWorkload) check(j int, res []engine.Result) int {
	if w.want == nil {
		return 0
	}
	if w.first[j] == nil {
		w.first[j] = make([]outcome, len(res))
		for i, r := range res {
			w.first[j][i] = outcomeOf(r)
		}
	}
	bad := 0
	for i, r := range res {
		got := outcomeOf(r)
		want, checked := w.want[j][i]
		if r.Err != "" || (checked && got != want) || got != w.first[j][i] {
			bad++
		}
	}
	return bad
}

// replay prices every scenario of the first suite again; each must
// match the model time the engine reported in its last pass.
func (w *batchWorkload) replay(ctx context.Context, tr *tracer, _ []string, lm layerMetrics) (attempted, failed int, err error) {
	rp := newReplayer(tr)
	for i := range w.suites[0] {
		replayed, evaluated := rp.point(ctx, &w.suites[0][i])
		attempted++
		if want := w.last[0][i].ModelTime; replayed != want || evaluated != want {
			failed++
		}
	}
	rp.fill(lm)
	return attempted, failed, nil
}

// planStore gives the engine the store's plan tier only. Persisting
// kernels as well would write six times as many files per cold half;
// on a disk mounted with discard, creating and deleting that many files
// makes the store's time follow the device's backlog rather than the
// program. The restart half is served entirely by the plan tier, so
// the kernel tier would only be written, never read.
type planStore struct{ s *store.Store }

func (p planStore) GetPlan(key string) ([]engine.PlanRecord, string, bool) { return p.s.GetPlan(key) }

func (p planStore) PutPlan(key string, plans []engine.PlanRecord, errMsg string) {
	p.s.PutPlan(key, plans, errMsg)
}

// timedStore is planStore in the traced run, timing each of the
// engine's calls into the store's get and put entry points. The store
// API carries no context, so the calls are totalled rather than
// recorded as spans (the engine's own store.lookup spans cover the
// lookups).
type timedStore struct {
	s  *store.Store
	tr *tracer
}

func (t timedStore) GetPlan(key string) ([]engine.PlanRecord, string, bool) {
	defer t.observe("store.get", time.Now())
	return t.s.GetPlan(key)
}

func (t timedStore) PutPlan(key string, plans []engine.PlanRecord, errMsg string) {
	defer t.observe("store.put", time.Now())
	t.s.PutPlan(key, plans, errMsg)
}

func (t timedStore) observe(name string, t0 time.Time) { t.tr.observe(name, time.Since(t0)) }
