package main

import (
	"context"
	"fmt"
	"os"
	"time"
)

// layerMetrics collects the traced run's per-layer values by name.
type layerMetrics map[string]float64

// perLayerUnits lists every per-layer metric with its unit. Counter
// values are per measured round of the traced half; replay values are
// totals over one replay of the workload's items (README.md).
var perLayerUnits = map[string]string{
	"machine.gen_ms":                "ms",
	"machine.contention_ms":         "ms",
	"machine.messages":              "count",
	"collective.permute_ms":         "ms",
	"collective.select_ms":          "ms",
	"collective.template_hit_ratio": "ratio",
	"compiled.compile_ms":           "ms",
	"compiled.eval_us":              "us",
	"compiled.evals":                "count",
	"core.optimize_ms":              "ms",
	"core.alignment_ms":             "ms",
	"core.macro_ms":                 "ms",
	"core.decompose_ms":             "ms",
	"core.self_ms":                  "ms",
	"intmat.kernel_ms":              "ms",
	"intmat.kernel_ops":             "count",
	"intmat.kernel_hit_ratio":       "ratio",
	"store.put_us":                  "us",
	"store.get_us":                  "us",
	"store.plan_puts":               "count",
	"store.disk_hit_ratio":          "ratio",
	"engine.scenario_p50_ms":        "ms",
	"engine.scenario_p99_ms":        "ms",
	"engine.plan_hit_ratio":         "ratio",
	"engine.select_hit_ratio":       "ratio",
	"engine.busy_share":             "ratio",
	"server.handler_us":             "us",
	"server.loopback_us":            "us",
	"server.engine_share":           "ratio",
	"api.encode_us":                 "us",
	"scenarios.generate_ms":         "ms",
	"trace.overhead_share":          "ratio",
	"trace.unattributed_share":      "ratio",
}

// runTraced is the traced run. Half the budget runs untraced, half
// traced (spans recorded, store calls timed); the difference in
// throughput is the tracing overhead. The program's counters are read
// around the traced half, then the workload replays its items through
// the layers' entry points.
func runTraced(ctx context.Context, o options, w workload) (*report, error) {
	_, generateS, err := setUp(ctx, w)
	if err != nil {
		return nil, err
	}
	if err := w.reference(ctx); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	half := secondsDur(o.seconds / 2)
	plain, err := measure(ctx, w, nil, half)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	before, err := w.snapshot(ctx)
	if err != nil {
		return nil, err
	}
	traced, err := measure(ctx, w, tr, half)
	if err != nil {
		return nil, err
	}
	after, err := w.snapshot(ctx)
	if err != nil {
		return nil, err
	}
	var roots []string
	for _, rs := range traced.rounds {
		roots = append(roots, rs.roots...)
	}
	lm := layerMetrics{}
	replayed, replayFailed, err := w.replay(ctx, tr, roots, lm)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	if replayFailed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d replayed items priced differently from the engine\n", replayFailed)
	}

	spans, dropped := tr.spans()
	rootSet := map[string]bool{}
	for _, id := range roots {
		rootSet[id] = true
	}
	counterMetrics(lm, traced, traced.delta.add(after.sub(before)))
	coreMetrics(lm, spans)
	lm["store.get_us"] = meanUs(tr.total("store.get"))
	lm["store.put_us"] = meanUs(tr.total("store.put"))
	lm["scenarios.generate_ms"] = generateS * 1e3
	lm["trace.overhead_share"] = 1 - traced.itemsPerSec()/plain.itemsPerSec()
	lm["trace.unattributed_share"] = unattributedShare(spans, rootSet)

	path, err := writeSpans(o.spansDir, &spanFile{
		Workload: o.workload, Seed: o.seed, Dropped: dropped,
		SelfMsBy: selfByLayer(spans), Spans: spans,
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(spans), path)

	failed := plain.failed + traced.failed + replayFailed
	rep := &report{
		Correct:   failed == 0,
		Attempted: plain.att + traced.att + replayed,
		Failed:    failed,
		Metrics:   map[string]metric{},
	}
	for name, unit := range perLayerUnits {
		rep.Metrics[name] = metric{lm[name], unit}
	}
	return rep, nil
}

// counterMetrics derives the per-layer values read from the program's
// own counters over the traced half, per measured round.
func counterMetrics(lm layerMetrics, traced *region, d counters) {
	rounds := float64(len(traced.rounds))
	lm["collective.template_hit_ratio"] = ratio(d.templateHits, d.templateMiss)
	lm["compiled.evals"] = d.evals / rounds
	lm["intmat.kernel_ms"] = d.kernelUs / 1e3 / rounds
	lm["intmat.kernel_ops"] = float64(traced.kernelOps) / rounds
	lm["intmat.kernel_hit_ratio"] = ratio(d.kernelHits+d.kernelDiskHits, d.kernelMisses)
	lm["store.plan_puts"] = d.planPuts / rounds
	lm["store.disk_hit_ratio"] = ratio(d.diskHits, d.diskMisses)
	lm["engine.scenario_p50_ms"] = percentile(traced.scenarioMs, 50)
	lm["engine.scenario_p99_ms"] = percentile(traced.scenarioMs, 99)
	lm["engine.plan_hit_ratio"] = ratio(d.planHits, d.planMisses)
	lm["engine.select_hit_ratio"] = ratio(d.selectHits, d.selectMisses)
	lm["engine.busy_share"] = d.totalUs / 1e6 / (traced.wall.Seconds() * float64(poolSize()))
}

// coreMetrics reads core's phases from the spans core.OptimizeCtx
// recorded under the replay's spans.
func coreMetrics(lm layerMetrics, spans []spanRec) {
	type key struct{ trace, id string }
	optimize := map[key]bool{}
	for _, s := range spans {
		if s.Name == "core.OptimizeCtx" {
			optimize[key{s.Trace, s.ID}] = true
			lm["core.self_ms"] += s.SelfUs / 1e3
		}
	}
	for _, s := range spans {
		if !optimize[key{s.Trace, s.Parent}] {
			continue
		}
		switch s.Name {
		case "alignment", "macro", "decompose":
			lm["core."+s.Name+"_ms"] += s.DurUs / 1e3
		}
	}
}

func meanUs(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(time.Microsecond) / float64(n)
}
