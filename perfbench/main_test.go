package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"

	"repro/internal/scenarios"
)

// TestSeededInputsRepeat: the same seed yields identical suites and
// client request sequences; another seed yields different ones.
func TestSeededInputsRepeat(t *testing.T) {
	for _, cfg := range []func(int64) scenarios.Config{bigSweepConfig, freshNestsConfig} {
		a, b := scenarios.Generate(cfg(7)), scenarios.Generate(cfg(7))
		if len(a) == 0 || len(a) != len(b) {
			t.Fatalf("suite sizes %d and %d", len(a), len(b))
		}
		for i := range a {
			if a[i].Name != b[i].Name || a[i].PlanKey() != b[i].PlanKey() {
				t.Fatalf("scenario %d differs: %s vs %s", i, a[i].Name, b[i].Name)
			}
		}
		if c := scenarios.Generate(cfg(8)); c[len(c)-1].PlanKey() == a[len(a)-1].PlanKey() {
			t.Error("seeds 7 and 8 generated the same last nest")
		}
	}
	if n := len(scenarios.Generate(bigSweepConfig(baselineSeed))); n != 200 {
		t.Errorf("big-sweep has %d scenarios, want 200", n)
	}
	if n := len(scenarios.Generate(freshNestsConfig(1))); n != 360 {
		t.Errorf("fresh-nests has %d scenarios, want 360", n)
	}

	for _, lattice := range []bool{false, true} {
		reqs, err := requestSpace(lattice)
		if err != nil {
			t.Fatal(err)
		}
		want := 800
		if lattice {
			want = 30
		}
		if len(reqs) != want {
			t.Errorf("lattice=%v: %d distinct requests, want %d", lattice, len(reqs), want)
		}
		seq := func(seed int64, client int) []int {
			s := newRequestStream(seed, client, len(reqs), lattice)
			out := make([]int, 3*len(reqs))
			for i := range out {
				out[i] = s.next()
			}
			return out
		}
		if !reflect.DeepEqual(seq(5, 0), seq(5, 0)) {
			t.Errorf("lattice=%v: one seed gave two request sequences", lattice)
		}
		if reflect.DeepEqual(seq(5, 0), seq(6, 0)) || reflect.DeepEqual(seq(5, 0), seq(5, 1)) {
			t.Errorf("lattice=%v: different seeds or clients gave one sequence", lattice)
		}
	}
}

// TestSelfTime checks the self-time arithmetic on a synthetic tree:
//
//	root  [0,100]
//	  a   [10,30]   with child a1 [12,40] (clipped to [12,30])
//	  b   [20,50]   overlaps a
//	  c   [90,120]  runs past root's end
func TestSelfTime(t *testing.T) {
	spans := []spanRec{
		{Trace: "t", ID: "root", Name: "bench.pass", StartUs: 0, DurUs: 100},
		{Trace: "t", ID: "a", Parent: "root", Name: "scenario", StartUs: 10, DurUs: 20},
		{Trace: "t", ID: "a1", Parent: "a", Name: "optimize", StartUs: 12, DurUs: 28},
		{Trace: "t", ID: "b", Parent: "root", Name: "scenario", StartUs: 20, DurUs: 30},
		{Trace: "t", ID: "c", Parent: "root", Name: "collective.select", StartUs: 90, DurUs: 30},
		// Same IDs in another trace must not count as children.
		{Trace: "u", ID: "x", Parent: "root", Name: "scenario", StartUs: 60, DurUs: 20},
	}
	for i := range spans {
		spans[i].Layer = layerOf(spans[i].Name)
	}
	computeSelf(spans)
	want := map[string]float64{"root": 50, "a": 2, "a1": 28, "b": 30, "c": 30}
	for _, s := range spans {
		if w, ok := want[s.ID]; ok && s.Trace == "t" && math.Abs(s.SelfUs-w) > 1e-9 {
			t.Errorf("self(%s) = %v, want %v", s.ID, s.SelfUs, w)
		}
	}
	byLayer := selfByLayer(spans[:5])
	if got := byLayer["engine"]; math.Abs(got-0.032) > 1e-12 {
		t.Errorf("engine self = %v ms, want 0.032", got)
	}
	if got := byLayer["bench"]; math.Abs(got-0.05) > 1e-12 {
		t.Errorf("bench self = %v ms, want 0.05", got)
	}
	if got := unattributedShare(spans, map[string]bool{"t": true}); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("unattributed share = %v, want 0.5", got)
	}
	if got := unionLength([][2]float64{{5, 6}, {0, 2}, {1, 3}}); got != 4 {
		t.Errorf("union length = %v, want 4", got)
	}
}

func TestPercentile(t *testing.T) {
	v := []float64{4, 1, 3, 2}
	if got := median(v); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := percentile(v, 100); got != 4 {
		t.Errorf("p100 = %v, want 4", got)
	}
	if v[0] != 4 {
		t.Error("percentile reordered its input")
	}
}

// benchmarkFile is the part of BENCHMARK.json the metrics must match.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return &bf
}

// TestBenchmarkFileMatches: BENCHMARK.json names exactly the workloads
// and metrics the program reports, with the same units.
func TestBenchmarkFileMatches(t *testing.T) {
	bf := loadBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames())
	}
	check := func(kind string, listed []struct{ Name, Unit string }, units map[string]string) {
		if len(listed) != len(units) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(listed), len(units))
		}
		for _, m := range listed {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s metric %s: BENCHMARK.json unit %q, program %q (reported: %v)", kind, m.Name, m.Unit, u, ok)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEndUnits)
	check("per_layer", bf.PerLayer, perLayerUnits)
}

// TestShortRuns runs every workload briefly, untraced and traced: each
// prints every named metric with its unit, and nothing fails (at seed
// 42 big-sweep is checked against baselines/big-sweep.json).
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			o := options{workload: name, seed: baselineSeed, seconds: 0.2, trace: traced, root: "..", spansDir: t.TempDir()}
			rep, err := run(context.Background(), o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			units := endToEndUnits
			if traced {
				units = perLayerUnits
			}
			if len(rep.Metrics) != len(units) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(rep.Metrics), len(units))
			}
			for m, u := range units {
				got, ok := rep.Metrics[m]
				if !ok || got.Unit != u {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", name, traced, m, got, u)
				}
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", name, traced, rep.Correct, rep.Failed, rep.Attempted)
			}
			if !traced && rep.Metrics["items_per_s"].Value <= 0 {
				t.Errorf("%s: items_per_s = %v", name, rep.Metrics["items_per_s"].Value)
			}
		}
	}
}
