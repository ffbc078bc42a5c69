// Command perfbench is the repository's whole-workload benchmark. It
// runs one named workload for a fixed time, checks every output it
// measured, and prints one JSON line as the last line of standard
// output:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{...}}
//
// With -trace 0 the metrics are the end-to-end ones (setup time,
// throughput, latency percentiles, CPU and allocation per item, peak
// memory). With -trace 1 the run is split in an untraced and a traced
// half and the metrics are the per-layer ones: the benchmark replays
// the measured work through each layer's public entry points, reads
// the program's own counters before and after each timed region, and
// writes every recorded span to a JSON file.
//
// Workloads (see README.md for the generator configs and the
// layer-to-metric mapping):
//
//	big-sweep       the published big-sweep preset at 16 seeds, a fresh engine session per pass
//	fresh-nests     360 distinct nests at 4 seeds: a cold session on an empty store, then a restart on it
//	serve-optimize  two closed-loop clients on POST /v1/optimize of an in-process daemon
//	lattice         two closed-loop clients on POST /v1/lattice of an in-process daemon
//
// Run it from the repository root through perfbench/run.sh, which
// builds this package and keeps build and scratch files under
// .bench_build:
//
//	bash perfbench/run.sh --workload big-sweep --seed 42 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// root is the repository checkout (for baselines/big-sweep.json).
	root string
	// spansDir receives the traced run's span file.
	spansDir string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's final output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload name: "+fmt.Sprint(workloadNames()))
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured time of the run")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run reporting the per-layer metrics")
	flag.StringVar(&o.root, "root", ".", "repository checkout holding baselines/")
	flag.StringVar(&o.spansDir, "spans-dir", filepath.Join(".bench_build", "spans"), "directory for the traced run's span file")
	flag.Parse()
	o.trace = traceFlag != 0

	rep, err := run(context.Background(), o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// workloads maps each workload name to its constructor.
var workloads = map[string]func(options) workload{
	"big-sweep":      newBigSweep,
	"fresh-nests":    newFreshNests,
	"serve-optimize": newServeOptimize,
	"lattice":        newLattice,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run executes one workload run and assembles its report.
func run(ctx context.Context, o options) (*report, error) {
	mk, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", o.workload, workloadNames())
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	w := mk(o)
	defer w.teardown()
	if o.trace {
		return runTraced(ctx, o, w)
	}
	return runPlain(ctx, o, w)
}
