package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/buildinfo"
	"repro/internal/store"
)

// TestOpsEndpoints: the ops handler serves /healthz, the Prometheus
// exposition and the pprof profiles, and the exposition covers every
// subsystem — server, engine pool, caches, store tiers and jobs —
// from the first scrape after traffic.
func TestOpsEndpoints(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, Options{Workers: 2, Store: st})
	ops := httptest.NewServer(srv.OpsHandler())
	t.Cleanup(ops.Close)

	// Drive one API request so the labeled request families have
	// children (empty vecs are omitted from the exposition).
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/optimize", api.OptimizeRequest{Example: "matmul"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize status %d: %s", resp.StatusCode, body)
	}

	resp, err = ops.Client().Get(ops.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status  string `json:"status"`
		Version string `json:"version"`
		Go      string `json:"go"`
	}
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d decode err %v", resp.StatusCode, err)
	}
	if health.Status != "ok" || health.Version != buildinfo.Version || health.Go != runtime.Version() {
		t.Fatalf("healthz payload %+v", health)
	}

	resp, err = ops.Client().Get(ops.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content-type %q", ct)
	}
	m := string(mb)
	for _, want := range []string{
		`resoptd_http_requests_total{endpoint="/v1/optimize",code="200"} 1`,
		`# TYPE resoptd_http_request_duration_seconds histogram`,
		`resoptd_http_in_flight_requests 0`,
		`resoptd_http_rate_limited_total 0`,
		`resopt_engine_workers 2`,
		`resopt_engine_cache_hits_total{tier="plan"}`,
		`resopt_engine_cache_misses_total{tier="kernel"}`,
		`resopt_engine_cache_hits_total{tier="compiled_pattern"}`,
		`resopt_engine_cache_misses_total{tier="compiled_pattern"}`,
		`resopt_engine_compiled_patterns `,
		`resopt_store_objects{tier="plans"}`,
		`resopt_store_gc_sweeps_total`,
		`resoptd_jobs{state="queued"} 0`,
		`resoptd_suite_cache_misses_total`,
		`resoptd_build_info{version="` + buildinfo.Version + `",goversion="` + runtime.Version() + `"} 1`,
		`resopt_engine_phase_time_us_total{phase="compute"}`,
		`resopt_engine_phase_time_us_total{phase="total"}`,
	} {
		if !strings.Contains(m, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// pprof: the index and one profile respond.
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap?debug=1"} {
		resp, err := ops.Client().Get(ops.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
	}

	// The ops index lists the endpoints; API routes are not served.
	resp, err = ops.Client().Get(ops.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("ops listener served /v1/stats: status %d", resp.StatusCode)
	}
}

// TestInstrumentStreaming: the instrumenting middleware preserves the
// Flusher the NDJSON batch handler needs, counts request and response
// bytes, and labels by route pattern, not raw URL.
func TestInstrumentStreaming(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 2})
	ops := httptest.NewServer(srv.OpsHandler())
	t.Cleanup(ops.Close)

	lines, sum := batchNDJSON(t, ts, api.BatchSpec{Seed: 3, Random: 2, NoExamples: true})
	if len(lines) == 0 || sum.Summary.Scenarios != len(lines) {
		t.Fatalf("batch returned %d lines, summary %+v", len(lines), sum.Summary)
	}

	// A 404 on an unrouted path must not mint a new label value.
	resp, err := ts.Client().Get(ts.URL + "/no/such/path-" + t.Name())
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	m := scrapeMetrics(t, ops)
	if !strings.Contains(m, `resoptd_http_requests_total{endpoint="/v1/batch",code="200"} 1`) {
		t.Errorf("batch request not counted:\n%s", m)
	}
	if v := metricValue(m, `resoptd_http_request_bytes_total{endpoint="/v1/batch"}`); v <= 0 {
		t.Errorf("request bytes not counted: %v", v)
	}
	if v := metricValue(m, `resoptd_http_response_bytes_total{endpoint="/v1/batch"}`); v <= 0 {
		t.Errorf("response bytes not counted: %v", v)
	}
	if strings.Contains(m, t.Name()) {
		t.Error("raw URL path leaked into a metric label")
	}
	if !strings.Contains(m, `endpoint="(unmatched)"`) {
		t.Error("404 not recorded under the (unmatched) label")
	}
}
