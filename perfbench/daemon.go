package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/affine"
	"repro/internal/api"
	"repro/internal/compiled"
	"repro/internal/distrib"
	"repro/internal/engine"
	"repro/internal/scenarios"
	"repro/internal/server"
	"repro/internal/trace"
)

// serveMachines are the machine specs of the serve-optimize request
// space.
var serveMachines = []string{
	"fattree32", "fattree64", "fattree128",
	"mesh4x4", "mesh8x8", "mesh2x16", "mesh16x2", "mesh16x16", "mesh64x2", "mesh2x64",
}

// latticeGrids are the capacity-planning grids of the lattice workload.
var latticeGrids = []string{
	"mesh{4..32}x{4..32}:bytes=1k..1M",
	"mesh{2..128}x2:bytes=64..4M",
	"fattree{32..256}:bytes=64..16M",
}

const (
	// serveRoundPerClient is the number of requests each client sends
	// in one serve-optimize round.
	serveRoundPerClient = 1000
	// serveReplaySample is the number of distinct requests the traced
	// serve-optimize run replays.
	serveReplaySample = 200
	// latticeSamplePerRequest is the number of rows of each lattice
	// request checked against a cache-disabled session.
	latticeSamplePerRequest = 2
	// serverTraceCap is the daemon's trace ring: the traced half reads
	// back the server's spans of up to this many of its last requests.
	serverTraceCap = 2048
)

// daemonRequest is one distinct request of a daemon workload.
type daemonRequest struct {
	path string
	body []byte
	// sc is the scenario the daemon resolves the request to (for a
	// lattice request: the nest, with the request's defaults).
	sc   scenarios.Scenario
	grid *compiled.Grid
	// want is the expected optimize response, or the expected lattice
	// rows of the checked sample by "machine|elem_bytes".
	want outcome
	rows map[string]outcome
	// samples are the sampled lattice points as scenarios.
	samples []scenarios.Scenario
}

// daemonWorkload drives an in-process daemon (server.New behind a
// loopback httptest server) with closed-loop clients: each client
// sends its next request only after the previous reply is read.
type daemonWorkload struct {
	o       options
	lattice bool

	reqs    []daemonRequest
	srv     *server.Server
	ts      *httptest.Server
	client  *http.Client
	streams []*requestStream
	// checked is set once reference has computed the expected outputs;
	// set-up traffic before that is not checked.
	checked bool
}

func newServeOptimize(o options) workload { return &daemonWorkload{o: o} }
func newLattice(o options) workload       { return &daemonWorkload{o: o, lattice: true} }

// blockDist is the distribution the daemon gives single-nest requests.
var blockDist = distrib.Dist2D{D0: distrib.Block{}, D1: distrib.Block{}}

// requestSpace builds the workload's distinct requests.
func requestSpace(lattice bool) ([]daemonRequest, error) {
	var out []daemonRequest
	for _, prog := range affine.AllExamples() {
		nest := scenarios.Scenario{Name: prog.Name, Program: prog, M: 2, Dist: blockDist, N: 16, ElemBytes: 64}
		if lattice {
			for _, g := range latticeGrids {
				grid, err := compiled.ParseGrid(g)
				if err != nil {
					return nil, err
				}
				body, err := json.Marshal(api.LatticeRequest{Example: prog.Name, Grid: g})
				if err != nil {
					return nil, err
				}
				out = append(out, daemonRequest{path: "/v1/lattice", body: body, sc: nest, grid: grid})
			}
			continue
		}
		for _, m := range serveMachines {
			spec, err := scenarios.ParseMachineSpec(m)
			if err != nil {
				return nil, err
			}
			for _, n := range []int{16, 32} {
				for _, eb := range []int64{64, 128, 256, 512} {
					body, err := json.Marshal(api.OptimizeRequest{Example: prog.Name, Machine: m, N: n, ElemBytes: eb})
					if err != nil {
						return nil, err
					}
					sc := nest
					sc.Machine, sc.N, sc.ElemBytes = spec, n, eb
					out = append(out, daemonRequest{path: "/v1/optimize", body: body, sc: sc})
				}
			}
		}
	}
	return out, nil
}

// requestStream is one client's seeded request order: uniform draws
// over the space for serve-optimize, successive shuffles of it for
// lattice.
type requestStream struct {
	rng     *rand.Rand
	n       int
	shuffle bool
	perm    []int
}

func newRequestStream(seed int64, client, n int, shuffle bool) *requestStream {
	return &requestStream{rng: rand.New(rand.NewSource(seed*1000 + int64(client))), n: n, shuffle: shuffle}
}

func (s *requestStream) next() int {
	if !s.shuffle {
		return s.rng.Intn(s.n)
	}
	if len(s.perm) == 0 {
		s.perm = s.rng.Perm(s.n)
	}
	i := s.perm[0]
	s.perm = s.perm[1:]
	return i
}

func (w *daemonWorkload) setup(ctx context.Context) (time.Duration, error) {
	t0 := time.Now()
	reqs, err := requestSpace(w.lattice)
	if err != nil {
		return 0, err
	}
	w.reqs = reqs
	generate := time.Since(t0)
	w.streams = nil
	for c := 0; c < poolSize(); c++ {
		w.streams = append(w.streams, newRequestStream(w.o.seed, c, len(w.reqs), w.lattice))
	}
	w.srv = server.New(server.Options{Workers: poolSize(), TraceCap: serverTraceCap})
	w.ts = httptest.NewServer(w.srv.Handler())
	w.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     poolSize(),
		MaxIdleConnsPerHost: poolSize(),
		DisableCompression:  true,
	}}
	// Warm-up: every distinct request once, split over the clients, so
	// plans, artifacts and templates are cached before timing.
	var wg sync.WaitGroup
	errs := make([]error, poolSize())
	for c := 0; c < poolSize(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(w.reqs); i += poolSize() {
				if _, err := w.send(ctx, nil, &w.reqs[i]); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return generate, fmt.Errorf("warm-up: %w", err)
		}
	}
	return generate, nil
}

func (w *daemonWorkload) teardown() {
	if w.ts != nil {
		w.ts.Close()
		w.ts = nil
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
		w.client = nil
	}
	if w.srv != nil {
		w.srv.Close()
		w.srv = nil
	}
}

// reply is one decoded daemon response.
type reply struct {
	optimize api.OptimizeResponse
	rows     []api.LatticeRow
	summary  api.LatticeSummaryBody
}

// send posts one request and decodes the reply; a non-2xx status or an
// undecodable body is an error. tp, when set, is sent as the W3C
// traceparent header.
func (w *daemonWorkload) send(ctx context.Context, tp *trace.Span, r *daemonRequest) (*reply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.ts.URL+r.path, bytes.NewReader(r.body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tp != nil {
		req.Header.Set("traceparent", tp.Traceparent())
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("%s: status %d: %s", r.path, resp.StatusCode, msg)
	}
	return decodeReply(resp.Body, r.path == "/v1/lattice")
}

func decodeReply(body io.Reader, lattice bool) (*reply, error) {
	rep := &reply{}
	if !lattice {
		if err := json.NewDecoder(body).Decode(&rep.optimize); err != nil {
			return nil, err
		}
		return rep, nil
	}
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.HasPrefix(line, []byte(`{"summary"`)) {
			var s api.LatticeSummary
			if err := json.Unmarshal(line, &s); err != nil {
				return nil, err
			}
			rep.summary = s.Summary
			continue
		}
		var row api.LatticeRow
		if err := json.Unmarshal(line, &row); err != nil {
			return nil, err
		}
		rep.rows = append(rep.rows, row)
	}
	return rep, sc.Err()
}

// reference computes the expected outputs with a cache-disabled
// session: every optimize request, and a seeded sample of each lattice
// request's points.
func (w *daemonWorkload) reference(ctx context.Context) error {
	rng := rand.New(rand.NewSource(w.o.seed))
	var batch []scenarios.Scenario
	for i := range w.reqs {
		r := &w.reqs[i]
		if !w.lattice {
			batch = append(batch, r.sc)
			continue
		}
		r.samples = nil
		for k := 0; k < latticeSamplePerRequest; k++ {
			sc := r.sc
			sc.Machine = r.grid.Machines[rng.Intn(len(r.grid.Machines))]
			sc.ElemBytes = r.grid.Bytes[rng.Intn(len(r.grid.Bytes))]
			r.samples = append(r.samples, sc)
			batch = append(batch, sc)
		}
	}
	s := engine.NewSession(engine.Options{Workers: poolSize(), DisableCache: true})
	defer s.Close()
	b, err := s.Run(ctx, batch)
	if err != nil {
		return err
	}
	w.checked = true
	k := 0
	for i := range w.reqs {
		r := &w.reqs[i]
		if !w.lattice {
			r.want = outcomeOf(b.Results[k])
			k++
			continue
		}
		r.rows = map[string]outcome{}
		for _, sc := range r.samples {
			r.rows[pointKey(sc.Machine.String(), sc.ElemBytes)] = outcomeOf(b.Results[k])
			k++
		}
	}
	return nil
}

func pointKey(machine string, elemBytes int64) string {
	return fmt.Sprintf("%s|%d", machine, elemBytes)
}

// check compares a reply with the expected outputs; it reports whether
// the reply is correct.
func (w *daemonWorkload) check(r *daemonRequest, rep *reply) bool {
	if !w.checked {
		return true
	}
	if !w.lattice {
		o := rep.optimize
		got := outcome{
			Classes:      [4]int{o.Local, o.Macro, o.Decomposed, o.General},
			ModelTime:    o.ModelTimeUs,
			Vectorizable: o.Vectorizable,
			Collectives:  o.Collectives,
		}
		return got == r.want
	}
	if len(rep.rows) != r.grid.Points() || rep.summary.Points != len(rep.rows) {
		return false
	}
	for _, row := range rep.rows {
		want, ok := r.rows[pointKey(row.Machine, row.ElemBytes)]
		if !ok {
			continue
		}
		got := outcome{Classes: row.Classes, ModelTime: row.ModelTimeUs, Vectorizable: row.Vectorizable, Collectives: row.Collectives}
		if got != want {
			return false
		}
	}
	return true
}

func (w *daemonWorkload) cycle() int { return 1 }

func (w *daemonWorkload) round(ctx context.Context, tr *tracer, _ int) (roundStats, error) {
	var rs roundStats
	per := serveRoundPerClient
	if w.lattice {
		per = len(w.reqs)
	}
	type clientStats struct {
		items, attempted, failed int
		lat, engineMs            []float64
		roots                    []string
	}
	stats := make([]clientStats, len(w.streams))
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := range w.streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cs := &stats[c]
			for k := 0; k < per; k++ {
				r := &w.reqs[w.streams[c].next()]
				rctx, root := ctx, (*trace.Span)(nil)
				if tr != nil {
					rctx, root = tr.root(ctx, "bench.request")
				}
				t1 := time.Now()
				rep, err := w.send(rctx, root, r)
				lat := time.Since(t1)
				root.End()
				if tr != nil {
					cs.roots = append(cs.roots, root.TraceID().String())
				}
				cs.attempted++
				if err != nil || !w.check(r, rep) {
					cs.failed++
					continue
				}
				cs.lat = append(cs.lat, float64(lat)/float64(time.Millisecond))
				if w.lattice {
					cs.items += len(rep.rows)
					continue
				}
				cs.items++
				if ph := rep.optimize.Phases; ph != nil {
					cs.engineMs = append(cs.engineMs, ph.TotalUs/1e3)
				}
			}
		}(c)
	}
	wg.Wait()
	rs.wall = time.Since(t0)
	for _, cs := range stats {
		rs.items += cs.items
		rs.attempted += cs.attempted
		rs.failed += cs.failed
		rs.latMs = append(rs.latMs, cs.lat...)
		rs.scenarioMs = append(rs.scenarioMs, cs.engineMs...)
		rs.roots = append(rs.roots, cs.roots...)
	}
	return rs, nil
}

// snapshot reads the daemon's /v1/stats.
func (w *daemonWorkload) snapshot(ctx context.Context) (counters, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.ts.URL+"/v1/stats", nil)
	if err != nil {
		return counters{}, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return counters{}, err
	}
	defer resp.Body.Close()
	var st api.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return counters{}, fmt.Errorf("/v1/stats: %w", err)
	}
	return statsCounters(&st), nil
}

// replay fetches the daemon's spans of the last traced requests, then
// replays a seeded sample of requests three ways — over loopback,
// through the handler in process, and straight into a warm engine
// session — and prices their points again through the layers' entry
// points.
func (w *daemonWorkload) replay(ctx context.Context, tr *tracer, roots []string, lm layerMetrics) (attempted, failed int, err error) {
	if err := w.fetchServerSpans(tr, roots); err != nil {
		return 0, 0, err
	}
	sample := w.replaySample()
	warm := engine.NewSession(engine.Options{Workers: poolSize()})
	defer warm.Close()
	for _, r := range sample {
		w.direct(ctx, warm, r) // warm the session's caches
	}
	handler := w.srv.Handler()
	rp := newReplayer(tr)
	var loop, inproc, direct, encode []float64
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	for _, r := range sample {
		rctx, root := tr.root(ctx, "bench.replay.request")
		var rep *reply
		var sendErr error
		loop = append(loop, us(tr.call(rctx, "server.loopback", func(ctx context.Context) { rep, sendErr = w.send(ctx, nil, r) })))
		inproc = append(inproc, us(tr.call(rctx, "server.ServeHTTP", func(context.Context) {
			req := httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body))
			handler.ServeHTTP(httptest.NewRecorder(), req)
		})))
		direct = append(direct, us(tr.call(rctx, "engine.direct", func(ctx context.Context) { w.direct(ctx, warm, r) })))
		root.End()
		attempted++
		if sendErr != nil || !w.check(r, rep) {
			failed++
			continue
		}
		encode = append(encode, us(tr.call(rctx, "api.encode", func(context.Context) { encodeReply(rep) })))
		points := r.samples
		if !w.lattice {
			points = []scenarios.Scenario{r.sc}
		}
		for i := range points {
			sc := &points[i]
			want := r.want.ModelTime
			if w.lattice {
				want = r.rows[pointKey(sc.Machine.String(), sc.ElemBytes)].ModelTime
			}
			replayed, evaluated := rp.point(ctx, sc)
			attempted++
			if replayed != want || evaluated != want {
				failed++
			}
		}
	}
	rp.fill(lm)
	lm["server.loopback_us"] = median(loop)
	lm["server.handler_us"] = median(inproc)
	if m := median(loop); m > 0 {
		lm["server.engine_share"] = median(direct) / m
	}
	lm["api.encode_us"] = median(encode)
	return attempted, failed, nil
}

// replaySample is a seeded sample of distinct requests: every lattice
// request, or serveReplaySample optimize requests.
func (w *daemonWorkload) replaySample() []*daemonRequest {
	idx := rand.New(rand.NewSource(w.o.seed + 1)).Perm(len(w.reqs))
	if !w.lattice && len(idx) > serveReplaySample {
		idx = idx[:serveReplaySample]
	}
	out := make([]*daemonRequest, len(idx))
	for i, k := range idx {
		out[i] = &w.reqs[k]
	}
	return out
}

// direct serves a request straight from an engine session, without
// HTTP: Session.Optimize, or the lattice handler's compiled path.
func (w *daemonWorkload) direct(ctx context.Context, s *engine.Session, r *daemonRequest) {
	if !w.lattice {
		sc := r.sc
		// Only the timing matters here; replies are checked elsewhere.
		_, _ = s.Optimize(ctx, &sc)
		return
	}
	art := s.CompiledArtifact(ctx, &r.sc)
	r.grid.Sweep(art, s.Pricer(), r.sc.Dist, r.sc.N)
}

// encodeReply encodes a decoded reply again, as the daemon does.
func encodeReply(rep *reply) {
	enc := json.NewEncoder(io.Discard)
	if rep.rows == nil {
		_ = enc.Encode(rep.optimize) // encoding to io.Discard cannot fail
		return
	}
	for _, row := range rep.rows {
		_ = enc.Encode(row)
	}
	_ = enc.Encode(api.LatticeSummary{Summary: rep.summary})
}

// fetchServerSpans reads back, through the daemon's ops handler, the
// spans it recorded for the last traced requests (they carry the
// benchmark's trace IDs via traceparent).
func (w *daemonWorkload) fetchServerSpans(tr *tracer, ids []string) error {
	if len(ids) > serverTraceCap {
		ids = ids[len(ids)-serverTraceCap:]
	}
	ops := w.srv.OpsHandler()
	for _, id := range ids {
		rec := httptest.NewRecorder()
		ops.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces/"+id+"?local=1", nil))
		if rec.Code == http.StatusNotFound {
			continue // evicted from the daemon's ring
		}
		var td struct {
			Spans []*trace.SpanNode `json:"spans"`
		}
		if err := json.NewDecoder(rec.Body).Decode(&td); err != nil {
			return fmt.Errorf("daemon trace %s: %w", id, err)
		}
		tr.addNodes(id, td.Spans)
	}
	return nil
}
