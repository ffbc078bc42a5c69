package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median, and the last set-up is the one measured.
const setupReps = 3

// minRounds is the fewest measured rounds a timed region runs, however
// short -seconds is.
const minRounds = 3

// poolSize is the number of engine workers, daemon workers and client
// loops: at most two, and never more than the machine's CPUs.
func poolSize() int {
	return min(2, runtime.NumCPU())
}

// workload is one named benchmark workload. A run calls setup
// setupReps times (teardown between them), reference once, then round
// repeatedly inside the timed region; a traced run then calls replay.
type workload interface {
	// setup generates the inputs from the seed and starts what serves
	// them, warmed up; it reports the time input generation took.
	setup(ctx context.Context) (generate time.Duration, err error)
	// reference computes the expected outputs, outside every timed
	// region.
	reference(ctx context.Context) error
	// cycle is the number of rounds that cover the workload's inputs
	// once; a timed region runs whole cycles.
	cycle() int
	// round runs round i of a timed region — one unit of measured
	// work — and checks its outputs; tr is nil in untraced rounds.
	round(ctx context.Context, tr *tracer, i int) (roundStats, error)
	// snapshot reads the counters of long-lived program state (the
	// daemon's /v1/stats); workloads whose state lives only inside a
	// round report its counters in roundStats.delta instead.
	snapshot(ctx context.Context) (counters, error)
	// replay prices the workload's items again through the layers'
	// public entry points, recording a span around each call, and
	// returns the number of items replayed and of those whose replayed
	// output differs from the measured one. roots are the trace IDs of
	// the traced half's root spans, oldest first.
	replay(ctx context.Context, tr *tracer, roots []string, lm layerMetrics) (attempted, failed int, err error)
	// teardown releases everything setup built.
	teardown()
}

// roundStats is the outcome of one measured round.
type roundStats struct {
	// items is the work the round completed (scenarios, requests or
	// lattice points); attempted and failed count the checked outputs.
	items, attempted, failed int
	wall                     time.Duration
	// latMs is each request's latency as the client sees it (daemon
	// workloads only; see region.latencies).
	latMs []float64
	// scenarioMs is the engine's own per-scenario time (batch
	// workloads) or the server-reported engine time (daemon workloads).
	scenarioMs []float64
	// kernelOps counts intmat kernel operations of scenarios computed
	// in this round.
	kernelOps int
	// delta is the change of the program's counters over the round,
	// for workloads whose program state lives only inside a round.
	delta counters
	// roots are the trace IDs of the round's benchmark root spans
	// (traced rounds only).
	roots []string
}

// region is a timed sequence of rounds plus its resource usage.
type region struct {
	cycle  int
	rounds []roundStats
	wall   time.Duration
	// peakRSSMB is the median over rounds of each round's peak
	// resident memory.
	peakRSSMB          float64
	cpu                time.Duration
	allocBytes         uint64
	items, att, failed int
	latMs, scenarioMs  []float64
	kernelOps          int
	delta              counters
}

// itemsPerSec is the region's throughput with outlier rounds
// discounted: the items of one cycle over the time of one cycle, each
// round of the cycle taken at its median over the region's cycles.
// With one round per cycle that is the median round's throughput.
func (r *region) itemsPerSec() float64 {
	var items, secs float64
	for slot := 0; slot < r.cycle; slot++ {
		var n, t []float64
		for i := slot; i < len(r.rounds); i += r.cycle {
			n = append(n, float64(r.rounds[i].items))
			t = append(t, r.rounds[i].wall.Seconds())
		}
		items += median(n)
		secs += median(t)
	}
	return items / secs
}

// latencies returns the samples the latency percentiles are taken
// over: every request of every round for the daemon workloads; for the
// batch workloads, whose caller waits for a whole pass, each suite's
// pass time at its median over the cycles run.
func (r *region) latencies() []float64 {
	if len(r.latMs) > 0 {
		return r.latMs
	}
	var out []float64
	for slot := 0; slot < r.cycle; slot++ {
		var t []float64
		for i := slot; i < len(r.rounds); i += r.cycle {
			t = append(t, float64(r.rounds[i].wall)/float64(time.Millisecond))
		}
		out = append(out, median(t))
	}
	return out
}

// measure runs whole cycles of rounds until the budget is spent — at
// least minRounds rounds and one cycle, and no further cycle when it
// would overrun the budget by more than half its length — recording
// each round's CPU time, heap allocation and peak resident memory.
// Each round's throughput goes to standard error.
func measure(ctx context.Context, w workload, tr *tracer, budget time.Duration) (*region, error) {
	r := &region{cycle: w.cycle()}
	var cpu time.Duration
	var alloc uint64
	var peaks []float64
	t0 := time.Now()
	for {
		// Every round starts from the same heap state: a collection with
		// free memory returned to the OS, so GC pacing does not carry
		// over between rounds and the round's peak resident memory is
		// its own.
		debug.FreeOSMemory()
		resetPeakRSS()
		cpu0, alloc0 := cpuTime(), totalAlloc()
		rs, err := w.round(ctx, tr, len(r.rounds))
		if err != nil {
			return nil, err
		}
		cpu += cpuTime() - cpu0
		alloc += totalAlloc() - alloc0
		peaks = append(peaks, peakRSSMB())
		r.rounds = append(r.rounds, rs)
		fmt.Fprintf(os.Stderr, "round %d: %d items in %v, %.1f/s, %d failed\n",
			len(r.rounds), rs.items, rs.wall.Round(time.Millisecond), float64(rs.items)/rs.wall.Seconds(), rs.failed)
		n := len(r.rounds)
		if n%r.cycle != 0 || n < minRounds {
			continue
		}
		elapsed := time.Since(t0)
		perCycle := elapsed / time.Duration(n/r.cycle)
		if elapsed+perCycle/2 >= budget {
			break
		}
	}
	r.wall = time.Since(t0)
	r.cpu, r.allocBytes, r.peakRSSMB = cpu, alloc, median(peaks)
	for _, rs := range r.rounds {
		r.items += rs.items
		r.att += rs.attempted
		r.failed += rs.failed
		r.latMs = append(r.latMs, rs.latMs...)
		r.scenarioMs = append(r.scenarioMs, rs.scenarioMs...)
		r.kernelOps += rs.kernelOps
		r.delta = r.delta.add(rs.delta)
	}
	return r, nil
}

// setUp runs the workload's set-up setupReps times and returns the
// median set-up time and input-generation time, in seconds.
func setUp(ctx context.Context, w workload) (setupS, generateS float64, err error) {
	var total, gen []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			w.teardown()
		}
		runtime.GC()
		t0 := time.Now()
		g, err := w.setup(ctx)
		if err != nil {
			return 0, 0, fmt.Errorf("setup: %w", err)
		}
		total = append(total, time.Since(t0).Seconds())
		gen = append(gen, g.Seconds())
	}
	return median(total), median(gen), nil
}

// runPlain is the untraced run: the end-to-end metrics.
func runPlain(ctx context.Context, o options, w workload) (*report, error) {
	setupS, _, err := setUp(ctx, w)
	if err != nil {
		return nil, err
	}
	if err := w.reference(ctx); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	reg, err := measure(ctx, w, nil, secondsDur(o.seconds))
	if err != nil {
		return nil, err
	}
	rep := &report{Correct: reg.failed == 0, Attempted: reg.att, Failed: reg.failed, Metrics: map[string]metric{}}
	put := func(name string, v float64) { rep.Metrics[name] = metric{v, endToEndUnits[name]} }
	put("setup_s", setupS)
	put("items_per_s", reg.itemsPerSec())
	lat := reg.latencies()
	put("latency_p50_ms", percentile(lat, 50))
	put("latency_p90_ms", percentile(lat, 90))
	put("latency_p99_ms", percentile(lat, 99))
	put("cpu_ms_per_item", float64(reg.cpu)/float64(time.Millisecond)/float64(reg.items))
	put("alloc_kb_per_item", float64(reg.allocBytes)/1024/float64(reg.items))
	put("peak_rss_mb", reg.peakRSSMB)
	return rep, nil
}

// endToEndUnits lists every end-to-end metric with its unit.
var endToEndUnits = map[string]string{
	"setup_s":           "s",
	"items_per_s":       "1/s",
	"latency_p50_ms":    "ms",
	"latency_p90_ms":    "ms",
	"latency_p99_ms":    "ms",
	"cpu_ms_per_item":   "ms",
	"alloc_kb_per_item": "KiB",
	"peak_rss_mb":       "MiB",
}

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's peak-RSS watermark of this
// process (Linux: "5" written to /proc/self/clear_refs). Where that is
// unavailable the watermark keeps covering the process's lifetime.
func resetPeakRSS() {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return
	}
	defer f.Close()
	_, _ = f.Write([]byte("5")) // best effort; see above
}

// peakRSSMB is the process's peak resident set size in MiB since the
// last resetPeakRSS (VmHWM in /proc/self/status), or over its lifetime
// (ru_maxrss, in KiB on Linux) where /proc is unavailable.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// totalAlloc is the cumulative heap allocation of the process.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
