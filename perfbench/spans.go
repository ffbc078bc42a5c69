package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/trace"
)

// recorderCap bounds the traces a traced run keeps in memory: enough
// for every request of a traced daemon half at several thousand
// requests per second.
const recorderCap = 1 << 16

// tracer records the traced run's spans. Spans are kept in memory in
// the program's own trace recorder — so spans the program records
// under the benchmark's context (engine scenarios, core phases) land
// in the same traces — and written out when the run ends. It also
// keeps per-name totals of the calls it timed.
type tracer struct {
	rec *trace.Recorder

	mu    sync.Mutex
	calls map[string]*callTotal
	// extra holds spans fetched from the daemon, whose recorder is its
	// own.
	extra []spanRec
}

type callTotal struct {
	d time.Duration
	n int
}

func newTracer() *tracer {
	return &tracer{rec: trace.NewRecorder(recorderCap), calls: map[string]*callTotal{}}
}

// root starts a new trace whose root span belongs to the benchmark.
func (t *tracer) root(ctx context.Context, name string) (context.Context, *trace.Span) {
	return trace.StartRoot(ctx, t.rec, name, "")
}

// call runs fn inside a span named after the public entry point it
// calls, and adds its duration to that name's total.
func (t *tracer) call(ctx context.Context, name string, fn func(ctx context.Context)) time.Duration {
	ctx, sp := trace.StartSpan(ctx, name)
	t0 := time.Now()
	fn(ctx)
	d := time.Since(t0)
	sp.EndWith(d)
	t.observe(name, d)
	return d
}

// observe adds one timed call to name's total.
func (t *tracer) observe(name string, d time.Duration) {
	t.mu.Lock()
	c := t.calls[name]
	if c == nil {
		c = &callTotal{}
		t.calls[name] = c
	}
	c.d += d
	c.n++
	t.mu.Unlock()
}

// total returns the summed duration and count of calls named name.
func (t *tracer) total(name string) (time.Duration, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if c := t.calls[name]; c != nil {
		return c.d, c.n
	}
	return 0, 0
}

// addNodes appends spans the daemon recorded for trace traceID.
func (t *tracer) addNodes(traceID string, nodes []*trace.SpanNode) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var walk func(n *trace.SpanNode)
	walk = func(n *trace.SpanNode) {
		t.extra = append(t.extra, fromSpanData(traceID, n.SpanData))
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, n := range nodes {
		walk(n)
	}
}

// spanRec is one span as written to the span file.
type spanRec struct {
	Trace   string  `json:"trace"`
	ID      string  `json:"id"`
	Parent  string  `json:"parent,omitempty"`
	Name    string  `json:"name"`
	Layer   string  `json:"layer"`
	StartUs float64 `json:"start_us"`
	DurUs   float64 `json:"dur_us"`
	// SelfUs is DurUs minus the part of the span's interval that its
	// children cover.
	SelfUs float64 `json:"self_us"`
}

func (s spanRec) end() float64 { return s.StartUs + s.DurUs }

func fromSpanData(traceID string, sd trace.SpanData) spanRec {
	return spanRec{
		Trace:   traceID,
		ID:      sd.ID,
		Parent:  sd.Parent,
		Name:    sd.Name,
		Layer:   layerOf(sd.Name),
		StartUs: float64(sd.Start.UnixNano()) / 1e3,
		DurUs:   sd.DurationUs,
	}
}

// spans returns every recorded span, with self times filled in.
func (t *tracer) spans() (out []spanRec, dropped int) {
	for _, td := range t.rec.List(0, 0) {
		dropped += td.Dropped
		for _, sd := range td.Spans {
			out = append(out, fromSpanData(td.TraceID, sd))
		}
	}
	t.mu.Lock()
	out = append(out, t.extra...)
	t.mu.Unlock()
	computeSelf(out)
	return out, dropped
}

// layerOf maps a span name to the layer (package) it measures. Names
// the program records (scenario, optimize, alignment, …) map to the
// package that records them; the benchmark's own spans are named
// after the entry point they time ("machine.AffineComm2D") or start
// with "bench." for its roots, which belong to no layer.
func layerOf(name string) string {
	switch name {
	case "http", "cluster.forward":
		return "server"
	case "scenario":
		return "engine"
	case "optimize", "alignment", "macro", "decompose":
		return "core"
	case "kernel":
		return "intmat"
	}
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return "other"
}

// computeSelf sets SelfUs of every span: its duration minus the union
// of its children's intervals clipped to its own. Children are spans
// of the same trace naming it as parent; they may overlap each other
// (two engine workers) and need not nest exactly (synthetic spans).
func computeSelf(spans []spanRec) {
	type key struct{ trace, id string }
	children := map[key][]int{}
	for i, s := range spans {
		if s.Parent != "" {
			k := key{s.Trace, s.Parent}
			children[k] = append(children[k], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		var iv [][2]float64
		for _, c := range children[key{s.Trace, s.ID}] {
			lo := max(spans[c].StartUs, s.StartUs)
			hi := min(spans[c].end(), s.end())
			if hi > lo {
				iv = append(iv, [2]float64{lo, hi})
			}
		}
		s.SelfUs = s.DurUs - unionLength(iv)
	}
}

// unionLength is the total length covered by the intervals.
func unionLength(iv [][2]float64) float64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	total, curLo, curHi := 0.0, 0.0, 0.0
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// selfByLayer sums self time per layer, in ms.
func selfByLayer(spans []spanRec) map[string]float64 {
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Layer] += s.SelfUs / 1e3
	}
	return out
}

// unattributedShare is the part of the given root spans' time that no
// span the program recorded covers: the self time of the benchmark's
// roots over their total duration. Roots without any recorded child
// (a daemon request whose spans were not read back) are skipped.
func unattributedShare(spans []spanRec, roots map[string]bool) float64 {
	parents := map[string]bool{}
	for _, s := range spans {
		parents[s.Trace+"/"+s.Parent] = true
	}
	var self, dur float64
	for _, s := range spans {
		if s.Parent == "" && roots[s.Trace] && parents[s.Trace+"/"+s.ID] {
			self += s.SelfUs
			dur += s.DurUs
		}
	}
	if dur == 0 {
		return 0
	}
	return self / dur
}

// spanFile is the traced run's output file.
type spanFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Dropped counts spans the recorder discarded past its per-trace
	// cap.
	Dropped  int                `json:"dropped_spans"`
	SelfMsBy map[string]float64 `json:"self_ms_by_layer"`
	Spans    []spanRec          `json:"spans"`
}

// writeSpans writes the span file and returns its path.
func writeSpans(dir string, f *spanFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("span file: %w", err)
	}
	// One file per workload, overwritten by the next traced run: the
	// files are large and runs are many.
	path := filepath.Join(dir, f.Workload+".json")
	data, err := json.Marshal(f)
	if err != nil {
		return "", fmt.Errorf("span file: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("span file: %w", err)
	}
	return path, nil
}
