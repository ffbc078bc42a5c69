package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/store"
)

// The golden tests pin the stats wire byte for byte: the /v1/stats
// and /v1/cluster/stats JSON and the counter families of /metrics,
// after a fixed request mix on a one-worker session (so even the
// kernel-tier hit/miss split is exact). Only timing-valued fields are
// masked, to their keys: phase microseconds, the phase-time metric,
// and the ephemeral listener URLs and peer state ages of the cluster
// pair. Every counter keeps its value.

// maskedJSONKeys are the timing- or port-valued stats fields; their
// values are masked. A peer's since_ms is dropped instead: it is
// omitted when zero, so even its presence depends on timing.
var (
	maskedJSONKeys = regexp.MustCompile(`"(compute_us|align_us|kernel_us|select_us|store_us|cost_us|total_us|url)":("[^"]*"|[-+.0-9eE]+)`)
	peerSinceMs    = regexp.MustCompile(`,"since_ms":[0-9]+`)
)

// goldenJSON masks a response body's timing-valued fields and indents
// it (field order is kept).
func goldenJSON(t *testing.T, body []byte) string {
	t.Helper()
	body = maskedJSONKeys.ReplaceAll(body, []byte(`"$1":"<masked>"`))
	body = peerSinceMs.ReplaceAll(body, nil)
	var buf bytes.Buffer
	if err := json.Indent(&buf, body, "", "  "); err != nil {
		t.Fatalf("indenting %s: %v", body, err)
	}
	return buf.String()
}

// goldenFamily reports whether a metric family belongs to the stats
// golden: the engine, store-traffic, suite-cache and job families.
// The store's per-tier object/byte gauges walk the filesystem and are
// left out.
func goldenFamily(name string) bool {
	switch {
	case name == "resopt_store_objects" || name == "resopt_store_bytes":
		return false
	case name == "resoptd_jobs":
		return true
	}
	return strings.HasPrefix(name, "resopt_engine_") || strings.HasPrefix(name, "resopt_store_") ||
		strings.HasPrefix(name, "resoptd_suite_cache_")
}

// goldenMetrics keeps the golden families' lines of an exposition and
// masks the phase-time sample values.
func goldenMetrics(exposition string) string {
	var out strings.Builder
	for _, line := range strings.Split(exposition, "\n") {
		series := line
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			series = rest
		} else if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			series = rest
		}
		name, _, _ := strings.Cut(series, " ")
		name, _, _ = strings.Cut(name, "{")
		if line == "" || !goldenFamily(name) {
			continue
		}
		if name == "resopt_engine_phase_time_us_total" && !strings.HasPrefix(line, "#") {
			line = line[:strings.LastIndexByte(line, ' ')] + " <masked>"
		}
		out.WriteString(line + "\n")
	}
	return out.String()
}

// checkGolden compares got with testdata/<name>.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the golden file; got:\n%s", name, got)
	}
}

// goldenServer starts a one-worker daemon with a store and its ops
// listener, and drives the fixed request mix: two identical optimizes,
// two decomposed mesh optimizes (pattern-tier miss then hit), two
// identical batches (suite-cache miss then hit) and one job, waited
// until finished.
func goldenServer(t *testing.T) (*httptest.Server, *httptest.Server) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, Options{Workers: 1, Store: st})
	ops := httptest.NewServer(srv.OpsHandler())
	t.Cleanup(ops.Close)

	for _, req := range []api.OptimizeRequest{
		{Example: "matmul"}, {Example: "matmul"},
		{Example: "skewedcopy", Machine: "mesh8x8"}, {Example: "skewedcopy", Machine: "mesh8x8"},
	} {
		if resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/optimize", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("optimize %+v: status %d: %s", req, resp.StatusCode, body)
		}
	}
	spec := api.BatchSpec{Random: 2, Seed: 3, NoExamples: true}
	for i := 0; i < 2; i++ {
		if resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/batch", spec); resp.StatusCode != http.StatusOK {
			t.Fatalf("batch: status %d: %s", resp.StatusCode, body)
		}
	}
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/jobs", api.BatchSpec{Random: 1, Seed: 5, NoExamples: true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job submit: status %d: %s", resp.StatusCode, body)
	}
	var job api.Job
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	waitJobFinished(t, ts, job.ID)
	srv.jobWG.Wait() // the job's persistence has landed too
	return ts, ops
}

// TestStatsGolden pins the /v1/stats body after the golden request mix.
func TestStatsGolden(t *testing.T) {
	ts, _ := goldenServer(t)
	resp, body := get(t, ts, "/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d: %s", resp.StatusCode, body)
	}
	checkGolden(t, "stats.golden", goldenJSON(t, body))
}

// TestMetricsGolden pins the engine, store, suite-cache and job
// families of /metrics after the golden request mix.
func TestMetricsGolden(t *testing.T) {
	_, ops := goldenServer(t)
	checkGolden(t, "metrics.golden", goldenMetrics(scrapeMetrics(t, ops)))
}

// TestClusterStatsGolden pins /v1/cluster/stats for a one-worker
// two-node pair after one request forwarded from nodeA to nodeB and
// one that nodeA owns, with both nodes' plan replication drained.
func TestClusterStatsGolden(t *testing.T) {
	a, b := startClusterPair(t, func(o *Options) { o.Workers = 1 })
	forwardedTraceID(t, a)
	if resp, _, body := optimizeVia(t, a, requestOwnedBy(t, a, "nodeA"), ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("local optimize on nodeA: status %d: %s", resp.StatusCode, body)
	}
	a.srv.clusterRt.wg.Wait()
	b.srv.clusterRt.wg.Wait()

	resp, body := get(t, a.ts, "/v1/cluster/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster stats status %d: %s", resp.StatusCode, body)
	}
	checkGolden(t, "cluster_stats.golden", goldenJSON(t, body))
}
