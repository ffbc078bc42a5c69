package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/store"
)

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

// batchNDJSON posts a batch spec and returns the raw line bytes
// (without the summary) plus the decoded summary.
func batchNDJSON(t *testing.T, ts *httptest.Server, spec api.BatchSpec) ([]string, api.BatchSummary) {
	t.Helper()
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/batch", spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	var lines []string
	var sum api.BatchSummary
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		if strings.Contains(line, `"summary"`) {
			if err := json.Unmarshal([]byte(line), &sum); err != nil {
				t.Fatal(err)
			}
			continue
		}
		lines = append(lines, line)
	}
	return lines, sum
}

// TestSnapshotRerunByteIdentical is the acceptance criterion: a batch
// submitted by snapshot name resolves the recorded spec and returns
// byte-identical result lines, and the server-side diff is clean.
func TestSnapshotRerunByteIdentical(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{Store: st})

	spec := api.BatchSpec{Seed: 5, Random: 2, NoExamples: true, SaveAs: "suiteA"}
	orig, origSum := batchNDJSON(t, ts, spec)
	if origSum.Summary.Snapshot != "suiteA" {
		t.Fatalf("run was not recorded: summary %+v", origSum.Summary)
	}

	rerun, rerunSum := batchNDJSON(t, ts, api.BatchSpec{Snapshot: "suiteA"})
	if strings.Join(rerun, "\n") != strings.Join(orig, "\n") {
		t.Errorf("re-run by snapshot name is not byte-identical:\n orig: %v\nrerun: %v", orig, rerun)
	}
	d := rerunSum.Summary.Diff
	if d == nil {
		t.Fatal("re-run summary has no server-side diff")
	}
	if d.Baseline != "suiteA" || d.Regressions != 0 || d.Changed != 0 || d.Added != 0 || d.Removed != 0 {
		t.Errorf("diff not clean: %+v", d)
	}
	if d.Unchanged != origSum.Summary.Scenarios {
		t.Errorf("diff unchanged = %d, want %d", d.Unchanged, origSum.Summary.Scenarios)
	}

	// The snapshot listing flags it re-runnable.
	resp, body := get(t, ts, "/v1/snapshots")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshots status %d", resp.StatusCode)
	}
	var list api.SnapshotList
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Snapshots) != 1 || list.Snapshots[0].Name != "suiteA" || !list.Snapshots[0].Rerunnable {
		t.Errorf("snapshot list %+v", list)
	}
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestSnapshotSpecErrors: snapshot-named specs reject conflicting
// generation fields, unknown names, and spec-less snapshots.
func TestSnapshotSpecErrors(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.SaveSnapshot("nospec", &store.Snapshot{}); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{Store: st})

	for name, tc := range map[string]struct {
		spec api.BatchSpec
		code int
		kind string
	}{
		"mixed":    {api.BatchSpec{Snapshot: "x", Random: 3}, http.StatusBadRequest, api.CodeBadRequest},
		"unknown":  {api.BatchSpec{Snapshot: "missing"}, http.StatusNotFound, api.CodeNotFound},
		"no spec":  {api.BatchSpec{Snapshot: "nospec"}, http.StatusUnprocessableEntity, api.CodeUnprocessable},
		"bad save": {api.BatchSpec{Random: 1, SaveAs: "../evil"}, http.StatusBadRequest, api.CodeBadRequest},
	} {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/batch", tc.spec)
		var env api.ErrorEnvelope
		if resp.StatusCode != tc.code || json.Unmarshal(body, &env) != nil || env.Error == nil || env.Error.Code != tc.kind {
			t.Errorf("%s: status %d body %s, want %d/%s", name, resp.StatusCode, body, tc.code, tc.kind)
		}
	}
}

// TestNoStoreTyped503: without a store, snapshot-dependent requests
// are a typed 503. (Separate test: engine sessions serialize, so a
// second live server inside another test would deadlock.)
func TestNoStoreTyped503(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for name, do := range map[string]func() (*http.Response, []byte){
		"snapshot spec": func() (*http.Response, []byte) {
			return postJSON(t, ts.Client(), ts.URL+"/v1/batch", api.BatchSpec{Snapshot: "x"})
		},
		"snapshot list": func() (*http.Response, []byte) { return get(t, ts, "/v1/snapshots") },
		"save_as": func() (*http.Response, []byte) {
			return postJSON(t, ts.Client(), ts.URL+"/v1/batch", api.BatchSpec{Random: 1, SaveAs: "s"})
		},
	} {
		resp, body := do()
		var env api.ErrorEnvelope
		if resp.StatusCode != http.StatusServiceUnavailable || json.Unmarshal(body, &env) != nil || env.Error == nil || env.Error.Code != api.CodeNoStore {
			t.Errorf("%s: status %d body %s, want typed 503", name, resp.StatusCode, body)
		}
	}
}

// TestJobLifecycle: submit → poll → results, with progress counts and
// spec echo.
func TestJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})

	spec := api.BatchSpec{Seed: 4, Random: 2, NoExamples: true}
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/jobs", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	var job api.Job
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	if job.ID == "" || job.Spec != spec || job.Progress.Total == 0 {
		t.Fatalf("submitted job %+v", job)
	}

	deadline := time.Now().Add(30 * time.Second)
	for !job.Status.Finished() {
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished: %+v", job.ID, job)
		}
		time.Sleep(10 * time.Millisecond)
		resp, body = get(t, ts, "/v1/jobs/"+job.ID)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll status %d", resp.StatusCode)
		}
		if err := json.Unmarshal(body, &job); err != nil {
			t.Fatal(err)
		}
	}
	if job.Status != api.JobDone {
		t.Fatalf("job finished as %s: %+v", job.Status, job)
	}
	if job.Progress.Done != job.Progress.Total {
		t.Errorf("progress %+v not complete", job.Progress)
	}
	if job.Started == nil || job.Finished == nil {
		t.Error("missing started/finished timestamps")
	}

	resp, body = get(t, ts, "/v1/jobs/"+job.ID+"/results")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results status %d: %s", resp.StatusCode, body)
	}
	var results api.JobResults
	if err := json.Unmarshal(body, &results); err != nil {
		t.Fatal(err)
	}
	if len(results.Results) != job.Progress.Total {
		t.Errorf("results has %d lines, want %d", len(results.Results), job.Progress.Total)
	}
	if results.Summary.Scenarios != job.Progress.Total {
		t.Errorf("summary %+v", results.Summary)
	}

	// And a job batch matches the synchronous batch of the same spec.
	lines, _ := batchNDJSON(t, ts, spec)
	for i, l := range lines {
		var bl api.BatchLine
		if err := json.Unmarshal([]byte(l), &bl); err != nil {
			t.Fatal(err)
		}
		if bl != results.Results[i] {
			t.Errorf("line %d: job %+v ≠ batch %+v", i, results.Results[i], bl)
		}
	}

	// The job shows up in the listing.
	resp, body = get(t, ts, "/v1/jobs")
	var list api.JobList
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &list) != nil || len(list.Jobs) == 0 {
		t.Errorf("job list: status %d body %s", resp.StatusCode, body)
	}
}

// TestJobResultsConflictAndCancel: results before completion are a
// typed 409; DELETE cancels a running job which then reports its
// partial results with a cancelled summary.
func TestJobResultsConflictAndCancel(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})

	// A big enough suite that it is still running when we poke it.
	spec := api.BatchSpec{Seed: 6, Random: 40, Deep: 5}
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/jobs", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	var job api.Job
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}

	resp, body = get(t, ts, "/v1/jobs/"+job.ID+"/results")
	var env api.ErrorEnvelope
	if resp.StatusCode != http.StatusConflict || json.Unmarshal(body, &env) != nil || env.Error == nil || env.Error.Code != api.CodeJobRunning {
		t.Fatalf("early results: status %d body %s", resp.StatusCode, body)
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+job.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		_, body = get(t, ts, "/v1/jobs/"+job.ID)
		if err := json.Unmarshal(body, &job); err != nil {
			t.Fatal(err)
		}
		if job.Status.Finished() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancelled job never settled: %+v", job)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The job may have finished before the cancel landed; both ends
	// are legal, but a cancelled job must carry the context error and
	// serve its partial results.
	if job.Status == api.JobCancelled {
		if job.Error == "" {
			t.Error("cancelled job has no error")
		}
		resp, body = get(t, ts, "/v1/jobs/"+job.ID+"/results")
		var results api.JobResults
		if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &results) != nil {
			t.Fatalf("cancelled results: status %d", resp.StatusCode)
		}
		if !results.Summary.Cancelled {
			t.Errorf("cancelled summary %+v", results.Summary)
		}
		if len(results.Results) >= job.Progress.Total {
			t.Errorf("cancelled job has full results: %d of %d", len(results.Results), job.Progress.Total)
		}
	}

	// Unknown job IDs are typed 404s on every job route.
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/results"} {
		resp, body = get(t, ts, path)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d body %s", path, resp.StatusCode, body)
		}
	}
}

// TestBatchClientDisconnect: a client closing its connection mid-
// stream cancels the engine work at a scenario boundary and leaves
// the session healthy for the next request.
func TestBatchClientDisconnect(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 1})

	spec, _ := json.Marshal(api.BatchSpec{Seed: 8, Random: 60, Deep: 5})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/batch", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read one line of the stream, then hang up.
	buf := make([]byte, 1)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatalf("reading first byte: %v", err)
	}
	cancel()
	resp.Body.Close()

	// The shared session must settle and stay usable: a full request
	// afterwards succeeds. (Server-side the RunStream returns with the
	// request context's error; give it a moment to unwind.)
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/optimize", api.OptimizeRequest{Example: "matmul"})
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session unhealthy after disconnect: status %d body %s", resp.StatusCode, body)
		}
		time.Sleep(20 * time.Millisecond)
	}
	_ = srv
}

// TestRateLimit: with -rate configured, a client hammering the API
// gets typed 429s with Retry-After, and the rejection is counted.
func TestRateLimit(t *testing.T) {
	srv, ts := newTestServer(t, Options{RatePerSec: 1, RateBurst: 2})

	var limited int
	var lastBody []byte
	var retryAfter string
	for i := 0; i < 10; i++ {
		resp, body := get(t, ts, "/v1/stats")
		if resp.StatusCode == http.StatusTooManyRequests {
			limited++
			lastBody = body
			retryAfter = resp.Header.Get("Retry-After")
		}
	}
	if limited == 0 {
		t.Fatal("10 rapid requests at 1 rps / burst 2 were never limited")
	}
	var env api.ErrorEnvelope
	if err := json.Unmarshal(lastBody, &env); err != nil || env.Error == nil || env.Error.Code != api.CodeRateLimited {
		t.Errorf("429 body %s", lastBody)
	}
	if retryAfter == "" {
		t.Error("429 without Retry-After")
	}

	// The stats snapshot counts every rejection (read in-process: the
	// limiter would refuse a /v1/stats request until its bucket refills).
	if got := srv.statsResponse().Requests.RateLimited; got != uint64(limited) {
		t.Errorf("rate-limited requests counted %d, want %d", got, limited)
	}
}

// TestRateKeyModes: the api-key and forwarded modes give distinct
// clients distinct buckets (all test traffic shares one source IP),
// while unknown header values fall back to the shared IP bucket.
func TestRateKeyModes(t *testing.T) {
	headerGet := func(ts *httptest.Server, header, value string) int {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/stats", nil)
		if err != nil {
			t.Fatal(err)
		}
		if value != "" {
			req.Header.Set(header, value)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	t.Run("api-key", func(t *testing.T) {
		_, ts := newTestServer(t, Options{RatePerSec: 0.001, RateBurst: 2, RateKey: RateKeyAPIKey})
		// Two clients, two keys: each gets its own burst of 2.
		for i := 0; i < 2; i++ {
			if code := headerGet(ts, "X-Api-Key", "alpha"); code != http.StatusOK {
				t.Fatalf("alpha request %d: %d", i, code)
			}
			if code := headerGet(ts, "X-Api-Key", "beta"); code != http.StatusOK {
				t.Fatalf("beta request %d: %d", i, code)
			}
		}
		// Both buckets are now empty; a third request per key is limited.
		if code := headerGet(ts, "X-Api-Key", "alpha"); code != http.StatusTooManyRequests {
			t.Errorf("alpha over burst: %d, want 429", code)
		}
		// A keyless request falls back to the (untouched) IP bucket.
		if code := headerGet(ts, "X-Api-Key", ""); code != http.StatusOK {
			t.Errorf("anonymous fallback: %d, want 200", code)
		}
	})

	t.Run("forwarded", func(t *testing.T) {
		_, ts := newTestServer(t, Options{RatePerSec: 0.001, RateBurst: 2, RateKey: RateKeyForwarded})
		// Distinct first hops get distinct buckets; later hops are the
		// proxy chain and must not matter.
		for i := 0; i < 2; i++ {
			if code := headerGet(ts, "X-Forwarded-For", "10.0.0.1, 192.168.0.9"); code != http.StatusOK {
				t.Fatalf("hop1 request %d: %d", i, code)
			}
			if code := headerGet(ts, "X-Forwarded-For", "10.0.0.2, 192.168.0.9"); code != http.StatusOK {
				t.Fatalf("hop2 request %d: %d", i, code)
			}
		}
		if code := headerGet(ts, "X-Forwarded-For", "10.0.0.1, 172.16.0.1"); code != http.StatusTooManyRequests {
			t.Errorf("same first hop via another proxy: %d, want 429", code)
		}
		if code := headerGet(ts, "X-Forwarded-For", ""); code != http.StatusOK {
			t.Errorf("headerless fallback: %d, want 200", code)
		}
	})

	t.Run("ip-default", func(t *testing.T) {
		_, ts := newTestServer(t, Options{RatePerSec: 0.001, RateBurst: 2})
		// In the default mode every header is ignored: all traffic
		// shares the loopback bucket.
		headerGet(ts, "X-Api-Key", "alpha")
		headerGet(ts, "X-Api-Key", "beta")
		if code := headerGet(ts, "X-Api-Key", "gamma"); code != http.StatusTooManyRequests {
			t.Errorf("ip mode over burst: %d, want 429", code)
		}
	})
}

// TestV1BatchCollectives: a mesh-bearing suite reports selected
// collective algorithms on its result lines, and the big_meshes axis
// resolves server-side.
func TestV1BatchCollectives(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	lines, sum := batchNDJSON(t, ts, api.BatchSpec{Random: 2, NoExamples: true, BigMeshes: true, Seed: 9})
	// 2 nests × (4 default + 3 big) machines.
	if sum.Summary.Scenarios != 14 {
		t.Fatalf("big_meshes suite ran %d scenarios, want 14", sum.Summary.Scenarios)
	}
	withColl, bigMesh := 0, 0
	for _, raw := range lines {
		var l api.BatchLine
		if err := json.Unmarshal([]byte(raw), &l); err != nil {
			t.Fatal(err)
		}
		if l.Collectives != "" {
			withColl++
			if !strings.Contains(l.Collectives, "=") {
				t.Errorf("%s: malformed collectives %q", l.Name, l.Collectives)
			}
		}
		if strings.Contains(l.Name, "mesh64x2") || strings.Contains(l.Name, "mesh2x64") || strings.Contains(l.Name, "mesh16x16") {
			bigMesh++
		}
	}
	if bigMesh != 6 {
		t.Errorf("%d big-mesh scenarios, want 6", bigMesh)
	}
	if withColl == 0 {
		t.Error("no batch line reported collectives")
	}
}
