package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/trace"
)

// opsServer exposes a cluster node's ops listener for tests.
func opsServer(t *testing.T, n *clusterNode) *httptest.Server {
	t.Helper()
	ops := httptest.NewServer(n.srv.OpsHandler())
	t.Cleanup(ops.Close)
	return ops
}

// forwardedTraceID runs one request via a that the ring forwards to b
// and returns its trace ID. Both recorders hold the trace afterwards:
// a's with the cluster.forward span, b's with the forwarded request's
// own root adopted from a's traceparent.
func forwardedTraceID(t *testing.T, a *clusterNode) string {
	t.Helper()
	req := requestOwnedBy(t, a, "nodeB")
	resp, out, body := optimizeVia(t, a, req, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize via A: status %d: %s", resp.StatusCode, body)
	}
	if out.Node != "nodeB" {
		t.Fatalf("answering node %q, want nodeB", out.Node)
	}
	id := resp.Header.Get(TraceHeader)
	if len(id) != 32 {
		t.Fatalf("Trace-Id %q, want a 32-hex trace ID", id)
	}
	return id
}

// TestClusterTraceAssembly is the tentpole acceptance test: after a
// forwarded request, the origin node's GET /debug/traces/{id} returns
// one stitched tree holding spans from both nodes, with the remote
// request's root nested under the cluster.forward span; ?local=1
// returns the local span set only (the fan-out's own loop guard); and
// the listing carries node_id and root status. Run under -race, the
// repeated fetch also pins down merge determinism.
func TestClusterTraceAssembly(t *testing.T) {
	a, b := startClusterPair(t, nil)
	id := forwardedTraceID(t, a)
	ops := opsServer(t, a)

	td, spans := getTrace(t, ops, id)
	if td.NodeID != "nodeA" {
		t.Errorf("detail node_id %q, want nodeA", td.NodeID)
	}
	if len(td.MissingNodes) != 0 {
		t.Errorf("missing_nodes %v with both nodes up", td.MissingNodes)
	}
	nodesSeen := map[string]bool{}
	for _, ns := range spans {
		for _, n := range ns {
			nodesSeen[n.NodeID] = true
		}
	}
	if !nodesSeen["nodeA"] || !nodesSeen["nodeB"] {
		t.Fatalf("merged tree spans from %v, want both nodes", nodesSeen)
	}
	fwds := spans["cluster.forward"]
	if len(fwds) != 1 {
		t.Fatalf("%d cluster.forward spans, want 1", len(fwds))
	}
	var remoteRoot *trace.SpanNode
	for _, c := range fwds[0].Children {
		if c.NodeID == "nodeB" && c.Name == "http" {
			remoteRoot = c
		}
	}
	if remoteRoot == nil {
		t.Fatalf("remote request root not nested under cluster.forward: %+v", fwds[0].Children)
	}
	if len(spans["scenario"]) == 0 || spans["scenario"][0].NodeID != "nodeB" {
		t.Errorf("remote scenario span missing or unstamped: %+v", spans["scenario"])
	}

	// Merged output is deterministic fetch over fetch.
	again, _ := getTrace(t, ops, id)
	if !equalJSON(t, td, again) {
		t.Error("repeated assembly returned a different tree")
	}

	// ?local=1 disables the fan-out: nodeA's own spans only.
	resp, err := ops.Client().Get(ops.URL + "/debug/traces/" + id + "?local=1")
	if err != nil {
		t.Fatal(err)
	}
	var localTd traceDetail
	err = json.NewDecoder(resp.Body).Decode(&localTd)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var walk func(ns []*trace.SpanNode)
	walk = func(ns []*trace.SpanNode) {
		for _, n := range ns {
			if n.NodeID != "nodeA" {
				t.Errorf("?local=1 leaked a %s span (%s)", n.NodeID, n.Name)
			}
			walk(n.Children)
		}
	}
	walk(localTd.Spans)

	// The listing triages without opening traces: node, spans, status.
	lresp, err := ops.Client().Get(ops.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	var list traceListResponse
	err = json.NewDecoder(lresp.Body).Decode(&list)
	lresp.Body.Close()
	if err != nil || len(list.Traces) == 0 {
		t.Fatalf("trace listing: err %v, %+v", err, list)
	}
	for _, sum := range list.Traces {
		if sum.TraceID != id {
			continue
		}
		if sum.NodeID != "nodeA" || sum.Status != http.StatusOK || sum.Spans == 0 {
			t.Errorf("listing entry %+v, want node_id nodeA, status 200, spans > 0", sum)
		}
	}

	// The same stitched view reaches B's ops listener for B's half.
	opsB := opsServer(t, b)
	if tdB, _ := getTrace(t, opsB, id); tdB.NodeID != "nodeB" {
		t.Errorf("B's detail node_id %q", tdB.NodeID)
	}
}

// TestClusterTraceAssemblyPeerDown: the peer vanishing between the
// request and the trace fetch yields the local half plus a
// missing_nodes marker — HTTP 200, never an error.
func TestClusterTraceAssemblyPeerDown(t *testing.T) {
	a, b := startClusterPair(t, nil)
	id := forwardedTraceID(t, a)
	b.ts.Close() // nodeB goes away before anyone looks at the trace

	td, spans := getTrace(t, opsServer(t, a), id)
	if len(td.MissingNodes) != 1 || td.MissingNodes[0] != "nodeB" {
		t.Errorf("missing_nodes %v, want [nodeB]", td.MissingNodes)
	}
	if len(spans["cluster.forward"]) != 1 {
		t.Error("local half of the tree lost")
	}
	for _, ns := range spans {
		for _, n := range ns {
			if n.NodeID == "nodeB" {
				t.Errorf("span %s claims nodeB with nodeB down", n.Name)
			}
		}
	}
	// The failed fetch marked the peer down: the next assembly skips it
	// without a connection attempt and still reports it missing.
	if a.srv.clusterRt.cl.Health().Up("nodeB") {
		t.Error("failed trace fetch did not mark nodeB down")
	}
	if td2, _ := getTrace(t, opsServer(t, a), id); len(td2.MissingNodes) != 1 {
		t.Errorf("second fetch missing_nodes %v", td2.MissingNodes)
	}
}

// TestClusterTraceEvictedOnRemote: the remote ring evicting the trace
// is a healthy miss — partial tree, missing_nodes marker, and the peer
// stays up.
func TestClusterTraceEvictedOnRemote(t *testing.T) {
	a, b := startClusterPair(t, nil)
	id := forwardedTraceID(t, a)

	// Flood B's ring until the forwarded trace falls out.
	for i := 0; i < trace.DefaultRecorderCap+8; i++ {
		_, root := trace.StartRoot(context.Background(), b.srv.tracer, fmt.Sprintf("filler-%d", i), "")
		root.End()
	}
	if _, ok := b.srv.tracer.Get(id); ok {
		t.Fatal("trace still in B's ring; eviction premise broken")
	}

	td, spans := getTrace(t, opsServer(t, a), id)
	if len(td.MissingNodes) != 1 || td.MissingNodes[0] != "nodeB" {
		t.Errorf("missing_nodes %v, want [nodeB]", td.MissingNodes)
	}
	if len(spans["cluster.forward"]) != 1 {
		t.Error("local half of the tree lost")
	}
	if !a.srv.clusterRt.cl.Health().Up("nodeB") {
		t.Error("an evicted trace (healthy 404) marked the peer down")
	}
}

// TestClusterPeerTraceGated: the API-listener trace and metrics
// endpoints are cluster-internal, like the replication routes.
func TestClusterPeerTraceGated(t *testing.T) {
	a, _ := startClusterPair(t, nil)
	id := forwardedTraceID(t, a)

	resp, body := get(t, a.ts, "/debug/traces/"+id)
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("peer trace without credential: status %d: %s", resp.StatusCode, body)
	}
	resp, _ = get(t, a.ts, "/metrics/peer")
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("peer metrics without credential: status %d", resp.StatusCode)
	}

	// With the credential, the raw local span set comes back.
	hr, _ := http.NewRequest(http.MethodGet, a.ts.URL+"/debug/traces/"+id+"?local=1", nil)
	hr.Header.Set(api.ForwardHeader, "nodeB")
	presp, err := a.ts.Client().Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	var td trace.TraceData
	err = json.NewDecoder(presp.Body).Decode(&td)
	presp.Body.Close()
	if err != nil || presp.StatusCode != http.StatusOK {
		t.Fatalf("peer trace fetch: status %d, err %v", presp.StatusCode, err)
	}
	if td.TraceID != id || td.NodeID != "nodeA" || len(td.Spans) == 0 {
		t.Errorf("peer trace body: %+v", td)
	}

	// Standalone daemons do not route the peer endpoints at all.
	_, ts := newTestServer(t, Options{})
	if resp, _ := get(t, ts, "/debug/traces/"+id); resp.StatusCode != http.StatusNotFound {
		t.Errorf("standalone routes the peer trace endpoint: status %d", resp.StatusCode)
	}
}

// TestClusterStats: /v1/cluster/stats reports every member's snapshot
// plus the rollup; a dead peer degrades to an unreachable entry
// without failing the endpoint.
func TestClusterStats(t *testing.T) {
	a, b := startClusterPair(t, nil)
	forwardedTraceID(t, a) // one forwarded optimize: counters on both sides

	resp, body := get(t, a.ts, "/v1/cluster/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster stats status %d: %s", resp.StatusCode, body)
	}
	var cs api.ClusterStatsResponse
	if err := json.Unmarshal(body, &cs); err != nil {
		t.Fatal(err)
	}
	if cs.Node != "nodeA" {
		t.Errorf("reporting node %q", cs.Node)
	}
	if len(cs.Members) != 2 || cs.Members[0].ID != "nodeA" || cs.Members[1].ID != "nodeB" {
		t.Fatalf("members %+v, want nodeA and nodeB sorted", cs.Members)
	}
	for _, m := range cs.Members {
		if m.Status != api.MemberOK || m.Stats == nil || m.URL == "" {
			t.Errorf("member %s: %+v", m.ID, m)
		}
	}
	ru := cs.Rollup
	if ru.Nodes != 2 || ru.Unreachable != 0 {
		t.Errorf("rollup nodes/unreachable = %d/%d", ru.Nodes, ru.Unreachable)
	}
	if ru.ForwardsOut != 1 || ru.ForwardsIn != 1 {
		t.Errorf("rollup forwards out/in = %d/%d, want 1/1", ru.ForwardsOut, ru.ForwardsIn)
	}
	if ru.Workers != cs.Members[0].Stats.Workers+cs.Members[1].Stats.Workers {
		t.Errorf("rollup workers %d not the member sum", ru.Workers)
	}
	if m0, m1 := cs.Members[0].Stats.Cache, cs.Members[1].Stats.Cache; ru.Cache.CompiledPatterns != m0.CompiledPatterns+m1.CompiledPatterns ||
		ru.Cache.CompiledPatternHits != m0.CompiledPatternHits+m1.CompiledPatternHits ||
		ru.Cache.CompiledPatternMisses != m0.CompiledPatternMisses+m1.CompiledPatternMisses {
		t.Errorf("rollup pattern tier %+v not the member sum", ru.Cache)
	}
	if ru.Phases.Scenarios == 0 || ru.Phases.TotalUs <= 0 {
		t.Errorf("rollup phases %+v", ru.Phases)
	}
	if ru.KernelHitRate < 0 || ru.KernelHitRate > 1 || ru.PlanHitRate < 0 || ru.PlanHitRate > 1 {
		t.Errorf("hit rates out of range: plan %g kernel %g", ru.PlanHitRate, ru.KernelHitRate)
	}

	// Kill B: the endpoint keeps answering, B becomes unreachable.
	b.ts.Close()
	resp, body = get(t, a.ts, "/v1/cluster/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster stats with dead peer: status %d", resp.StatusCode)
	}
	cs = api.ClusterStatsResponse{}
	if err := json.Unmarshal(body, &cs); err != nil {
		t.Fatal(err)
	}
	var down *api.ClusterMemberStats
	for i := range cs.Members {
		if cs.Members[i].ID == "nodeB" {
			down = &cs.Members[i]
		}
	}
	if down == nil || down.Status != api.MemberUnreachable || down.Error == "" || down.Stats != nil {
		t.Fatalf("dead member entry: %+v", down)
	}
	if cs.Rollup.Unreachable != 1 || cs.Rollup.Nodes != 2 {
		t.Errorf("rollup with dead peer: %+v", cs.Rollup)
	}
	// A's own forward counter survives in the rollup.
	if cs.Rollup.ForwardsOut != 1 {
		t.Errorf("rollup forwards_out = %d after losing B", cs.Rollup.ForwardsOut)
	}
}

// TestClusterStatsStandalone: a standalone daemon answers the same
// endpoint with itself as the only member, so dashboards need not
// care about the deployment shape.
func TestClusterStatsStandalone(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	resp, body := get(t, ts, "/v1/cluster/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var cs api.ClusterStatsResponse
	if err := json.Unmarshal(body, &cs); err != nil {
		t.Fatal(err)
	}
	if cs.Node != "" || len(cs.Members) != 1 || cs.Members[0].ID != "self" {
		t.Errorf("standalone members: node %q, %+v", cs.Node, cs.Members)
	}
	if cs.Members[0].Stats == nil || cs.Rollup.Nodes != 1 || cs.Rollup.Unreachable != 0 {
		t.Errorf("standalone rollup: %+v", cs.Rollup)
	}
}

// fillDistinct sets every numeric field reachable from v (allocating
// nil struct pointers on the way) to the next value of *next, so no
// two fields of one or several filled values are equal.
func fillDistinct(v reflect.Value, next *int) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		}
		fillDistinct(v.Elem(), next)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillDistinct(v.Field(i), next)
		}
	case reflect.Int, reflect.Int64:
		*next++
		v.SetInt(int64(*next))
	case reflect.Uint64:
		*next++
		v.SetUint(uint64(*next))
	case reflect.Float64:
		*next++
		v.SetFloat(float64(*next))
	}
}

// jsonObject round-trips v through its wire encoding.
func jsonObject(t *testing.T, v any) map[string]any {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRollupSumsEveryField: with every numeric field of two member
// snapshots set to a distinct non-zero value, the rollup is their
// field-wise sum on the wire — every counter of every section, the
// workers and the node forward counters — except the sweeper
// interval, copied from the first member, and the two hit rates,
// recomputed from the summed counters. The rollup carries no key this
// test does not account for.
func TestRollupSumsEveryField(t *testing.T) {
	var sa, sb api.StatsResponse
	next := 0
	fillDistinct(reflect.ValueOf(&sa).Elem(), &next)
	fillDistinct(reflect.ValueOf(&sb).Elem(), &next)
	ru := rollupStats([]api.ClusterMemberStats{
		{ID: "a", Status: api.MemberOK, Stats: &sa},
		{ID: "b", Status: api.MemberOK, Stats: &sb},
		{ID: "c", Status: api.MemberUnreachable},
	})
	a, b, got := jsonObject(t, sa), jsonObject(t, sb), jsonObject(t, ru)

	want := map[string]any{
		"nodes":       3.0,
		"unreachable": 1.0,
		"workers":     a["workers"].(float64) + b["workers"].(float64),
	}
	for _, section := range []string{"requests", "cache", "suite_cache", "jobs", "phases", "store", "sweeper"} {
		as, bs := a[section].(map[string]any), b[section].(map[string]any)
		sum := map[string]any{}
		for k, av := range as {
			sum[k] = av.(float64) + bs[k].(float64)
		}
		want[section] = sum
	}
	want["sweeper"].(map[string]any)["interval_seconds"] = a["sweeper"].(map[string]any)["interval_seconds"]
	an, bn := a["node"].(map[string]any), b["node"].(map[string]any)
	for _, k := range []string{"forwards_out", "forwards_in", "forward_fallbacks", "peer_plan_hits", "plans_replicated"} {
		want[k] = an[k].(float64) + bn[k].(float64)
	}
	c := want["cache"].(map[string]any)
	f := func(k string) float64 { return c[k].(float64) }
	want["plan_hit_rate"] = (f("plan_hits") + f("disk_hits")) / (f("plan_hits") + f("plan_misses"))
	want["kernel_hit_rate"] = (f("kernel_hits") + f("kernel_disk_hits")) / (f("kernel_hits") + f("kernel_misses"))

	if !reflect.DeepEqual(got, want) {
		for k, w := range want {
			if !reflect.DeepEqual(got[k], w) {
				t.Errorf("rollup %q = %v, want %v", k, got[k], w)
			}
		}
		for k, g := range got {
			if _, ok := want[k]; !ok {
				t.Errorf("rollup carries unaccounted key %q = %v", k, g)
			}
		}
	}
}

// TestClusterMetricsFederation: GET /metrics/cluster on the ops
// listener merges both nodes' scrapes into one exposition with node
// labels, single metadata per family, and the runtime telemetry
// present for every member.
func TestClusterMetricsFederation(t *testing.T) {
	a, b := startClusterPair(t, nil)
	forwardedTraceID(t, a)

	resp, body := get(t, opsServer(t, a), "/metrics/cluster")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics/cluster status %d", resp.StatusCode)
	}
	out := string(body)
	for _, want := range []string{
		`resopt_go_goroutines{node="nodeA"}`,
		`resopt_go_goroutines{node="nodeB"}`,
		`resopt_cluster_forwards_total{node="nodeA",peer="nodeB",direction="out"} 1`,
		`resopt_cluster_forwards_total{node="nodeB",peer="nodeA",direction="in"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("federated scrape missing %q", want)
		}
	}
	for _, meta := range []string{"# TYPE resopt_go_goroutines gauge", "# TYPE resopt_cluster_forwards_total counter"} {
		if n := strings.Count(out, meta); n != 1 {
			t.Errorf("%q appears %d times in the federated scrape, want once", meta, n)
		}
	}

	// A dead peer is simply absent, not an error.
	b.ts.Close()
	resp, body = get(t, opsServer(t, a), "/metrics/cluster")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics/cluster with dead peer: status %d", resp.StatusCode)
	}
	out = string(body)
	if !strings.Contains(out, `node="nodeA"`) || strings.Contains(out, `node="nodeB"`) {
		t.Error("dead peer handling: want nodeA present, nodeB absent")
	}
}

// TestClusterHealthzDegraded: /healthz reports the fleet view — ok
// with every peer up, degraded (still HTTP 200) when one is marked
// down — on both the API and ops listeners.
func TestClusterHealthzDegraded(t *testing.T) {
	a, _ := startClusterPair(t, nil)
	check := func(wantStatus string, wantUp float64) {
		t.Helper()
		for _, src := range []struct {
			name string
			ts   *httptest.Server
		}{{"api", a.ts}, {"ops", opsServer(t, a)}} {
			resp, body := get(t, src.ts, "/healthz")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s healthz status %d", src.name, resp.StatusCode)
			}
			var h map[string]any
			if err := json.Unmarshal(body, &h); err != nil {
				t.Fatal(err)
			}
			if h["status"] != wantStatus || h["node"] != "nodeA" {
				t.Errorf("%s healthz %v, want status %q", src.name, h, wantStatus)
			}
			if h["peers_up"] != wantUp || h["peers_total"] != 1.0 {
				t.Errorf("%s healthz peers %v/%v, want %v/1", src.name, h["peers_up"], h["peers_total"], wantUp)
			}
		}
	}
	check("ok", 1)
	a.srv.clusterRt.cl.Health().ReportFailure("nodeB", fmt.Errorf("test: down"))
	check("degraded", 0)
	a.srv.clusterRt.cl.Health().ReportSuccess("nodeB")
	check("ok", 1)
}
