package main

import (
	"math"
	"sort"

	"repro/internal/api"
	"repro/internal/engine"
)

// counters is the subset of the program's own counters the benchmark
// reports: CacheStats (which folds in Pricer.Stats), PhaseTotals and
// the store's Stats, or the same fields read from /v1/stats. Differences of two snapshots are the work done between
// them.
type counters struct {
	planHits, planMisses       float64
	diskHits, diskMisses       float64
	selectHits, selectMisses   float64
	kernelHits, kernelMisses   float64
	kernelDiskHits             float64
	templateHits, templateMiss float64
	evals                      float64
	kernelUs, totalUs          float64
	planPuts                   float64
}

// sessionCounters snapshots an engine session.
func sessionCounters(s *engine.Session) counters {
	cs, ph := s.CacheStats(), s.PhaseTotals()
	return counters{
		planHits: float64(cs.PlanHits), planMisses: float64(cs.PlanMisses),
		diskHits: float64(cs.DiskHits), diskMisses: float64(cs.DiskMisses),
		selectHits: float64(cs.SelectHits), selectMisses: float64(cs.SelectMisses),
		kernelHits: float64(cs.KernelHits), kernelMisses: float64(cs.KernelMisses),
		kernelDiskHits: float64(cs.KernelDiskHits),
		templateHits:   float64(cs.CompiledTemplateHits), templateMiss: float64(cs.CompiledTemplateMisses),
		evals:    float64(cs.CompiledEvals),
		kernelUs: ph.KernelUs, totalUs: ph.TotalUs,
	}
}

// statsCounters converts a daemon's /v1/stats body.
func statsCounters(r *api.StatsResponse) counters {
	cs, ph := r.Cache, r.Phases
	c := counters{
		planHits: float64(cs.PlanHits), planMisses: float64(cs.PlanMisses),
		diskHits: float64(cs.DiskHits), diskMisses: float64(cs.DiskMisses),
		selectHits: float64(cs.SelectHits), selectMisses: float64(cs.SelectMisses),
		kernelHits: float64(cs.KernelHits), kernelMisses: float64(cs.KernelMisses),
		kernelDiskHits: float64(cs.KernelDiskHits),
		templateHits:   float64(cs.CompiledTemplateHits), templateMiss: float64(cs.CompiledTemplateMisses),
		evals:    float64(cs.CompiledEvals),
		kernelUs: ph.KernelUs,
		totalUs:  ph.TotalUs,
	}
	if r.Store != nil {
		c.planPuts = float64(r.Store.PlanPuts)
	}
	return c
}

// add returns the field-wise sum c + d.
func (c counters) add(d counters) counters { return c.combine(d, 1) }

// sub returns the field-wise difference c − d.
func (c counters) sub(d counters) counters { return c.combine(d, -1) }

func (c counters) combine(d counters, sign float64) counters {
	f := func(a, b float64) float64 { return a + sign*b }
	return counters{
		planHits: f(c.planHits, d.planHits), planMisses: f(c.planMisses, d.planMisses),
		diskHits: f(c.diskHits, d.diskHits), diskMisses: f(c.diskMisses, d.diskMisses),
		selectHits: f(c.selectHits, d.selectHits), selectMisses: f(c.selectMisses, d.selectMisses),
		kernelHits: f(c.kernelHits, d.kernelHits), kernelMisses: f(c.kernelMisses, d.kernelMisses),
		kernelDiskHits: f(c.kernelDiskHits, d.kernelDiskHits),
		templateHits:   f(c.templateHits, d.templateHits), templateMiss: f(c.templateMiss, d.templateMiss),
		evals:    f(c.evals, d.evals),
		kernelUs: f(c.kernelUs, d.kernelUs), totalUs: f(c.totalUs, d.totalUs),
		planPuts: f(c.planPuts, d.planPuts),
	}
}

// ratio is hits/(hits+misses), 0 when nothing was looked up.
func ratio(hits, misses float64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}

// median of v (0 for an empty slice); v is not modified.
func median(v []float64) float64 { return percentile(v, 50) }

// percentile returns the p-th percentile of v by linear interpolation
// between closest ranks (0 for an empty slice); v is not modified.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
