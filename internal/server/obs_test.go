package server

import (
	"context"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/traj"
)

func TestServerMetricsRecorded(t *testing.T) {
	g, ds := testSetup(t)
	reg := obs.NewRegistry()
	srv := httptest.NewServer(New(g, Config{DataNodes: 2, Obs: reg}).Handler())
	defer srv.Close()
	c := NewClient(srv.URL, srv.Client())
	ctx := context.Background()

	if _, err := c.Ingest(ctx, ds); err != nil {
		t.Fatal(err)
	}
	q := ClusterQuery{Level: "flow", Epsilon: 1500, MinCard: 3}
	if _, err := c.Clusters(ctx, q); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Clusters(ctx, q); err != nil {
		t.Fatal(err)
	}

	// Server series carry the session label (the default session here).
	def := obs.L("session", "default")
	if got := reg.Counter("server_ingest_trajectories_total", def).Value(); got != int64(len(ds.Trajectories)) {
		t.Errorf("ingest trajectories counter = %d, want %d", got, len(ds.Trajectories))
	}
	if got := reg.Counter("server_ingest_fragments_total", def).Value(); got == 0 {
		t.Error("ingest fragments counter is zero")
	}
	if got := reg.Counter("server_cache_misses_total", def).Value(); got != 1 {
		t.Errorf("cache misses = %d, want 1", got)
	}
	if got := reg.Counter("server_cache_hits_total", def).Value(); got != 1 {
		t.Errorf("cache hits = %d, want 1", got)
	}
	// The clustering pipeline recorded its own series through the same
	// registry (one run for the cache miss).
	if got := reg.Counter("neat_runs_total").Value(); got != 1 {
		t.Errorf("neat_runs_total = %d, want 1", got)
	}
	// The middleware recorded route-level series.
	if got := reg.Counter("http_requests_total",
		obs.L("route", "/v1/clusters"), obs.L("code", "200")).Value(); got != 2 {
		t.Errorf("clusters 200s = %d, want 2", got)
	}
	if got := reg.Histogram("http_request_duration_seconds", nil,
		obs.L("route", "/v1/trajectories")).Count(); got != 1 {
		t.Errorf("ingest latency observations = %d, want 1", got)
	}
	// A duplicate ingest bumps the rejected counter.
	if _, err := c.Ingest(ctx, traj.Dataset{Trajectories: ds.Trajectories[:1]}); err == nil {
		t.Fatal("duplicate ingest accepted")
	}
	if got := reg.Counter("server_ingest_rejected_total", def).Value(); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}
}

// TestMemoMetricsAccounting pins what the pipeline series mean under
// the two-tier snapshot memo: every result-cache miss counts one
// neat_runs_total and adds its flows and clusters, and an opt-level
// miss observes phase 3 and adds its shortest-path work; phases 1 and 2
// (and the fragment count) are observed once per snapshot, by the miss
// that computed them. Result-cache hits record nothing.
func TestMemoMetricsAccounting(t *testing.T) {
	g, ds := testSetup(t)
	reg := obs.NewRegistry()
	srv := httptest.NewServer(New(g, Config{DataNodes: 2, Obs: reg}).Handler())
	defer srv.Close()
	c := NewClient(srv.URL, srv.Client())
	ctx := context.Background()
	counter := func(name string) int64 { return reg.Counter(name).Value() }
	phases := func() [3]int64 {
		var out [3]int64
		for i, n := range []string{"1", "2", "3"} {
			out[i] = reg.Histogram("neat_phase_seconds", nil, obs.L("phase", n)).Count()
		}
		return out
	}
	var runs, flows, clusters, frags int64
	read := func(q ClusterQuery, miss bool, wantPhases [3]int64) {
		t.Helper()
		sp := counter("neat_sp_queries_total")
		resp, err := c.Clusters(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if miss {
			runs++
			flows += int64(len(resp.Flows))
			clusters += int64(len(resp.Clusters))
		}
		for name, want := range map[string]int64{
			"neat_runs_total":      runs,
			"neat_flows_total":     flows,
			"neat_clusters_total":  clusters,
			"neat_fragments_total": frags,
		} {
			if got := counter(name); got != want {
				t.Errorf("after %+v: %s = %d, want %d", q, name, got, want)
			}
		}
		if got := phases(); got != wantPhases {
			t.Errorf("after %+v: neat_phase_seconds counts %v, want %v", q, got, wantPhases)
		}
		if grew := counter("neat_sp_queries_total") > sp; grew != (miss && q.Level == "opt") {
			t.Errorf("after %+v: neat_sp_queries_total grew=%v", q, grew)
		}
	}

	ing, err := c.Ingest(ctx, traj.Dataset{Trajectories: ds.Trajectories[:30]})
	if err != nil {
		t.Fatal(err)
	}
	frags = int64(ing.TotalFragments)
	read(ClusterQuery{Level: "opt", Epsilon: 1500, MinCard: 2}, true, [3]int64{1, 1, 1})
	read(ClusterQuery{Level: "opt", Epsilon: 2500, MinCard: 3}, true, [3]int64{1, 1, 2})
	read(ClusterQuery{Level: "flow", Epsilon: 1500, MinCard: 4}, true, [3]int64{1, 1, 2})
	read(ClusterQuery{Level: "base", Epsilon: 1500, MinCard: 0}, true, [3]int64{1, 1, 2})
	read(ClusterQuery{Level: "opt", Epsilon: 1500, MinCard: 2}, false, [3]int64{1, 1, 2})

	ing, err = c.Ingest(ctx, traj.Dataset{Trajectories: ds.Trajectories[30:]})
	if err != nil {
		t.Fatal(err)
	}
	frags += int64(ing.TotalFragments)
	read(ClusterQuery{Level: "flow", Epsilon: 1500, MinCard: 2}, true, [3]int64{2, 2, 2})
	read(ClusterQuery{Level: "opt", Epsilon: 1500, MinCard: 2}, true, [3]int64{2, 2, 3})
}

// TestConcurrentIngestQueryCacheConsistency drives ingest and cluster
// queries concurrently (run under -race in CI) and then verifies the
// cache never went stale: the post-quiescence response must equal a
// from-scratch computation over the full dataset on an identical
// server.
func TestConcurrentIngestQueryCacheConsistency(t *testing.T) {
	g, ds := testSetup(t)
	reg := obs.NewRegistry()
	srv := httptest.NewServer(New(g, Config{DataNodes: 4, Obs: reg}).Handler())
	defer srv.Close()
	c := NewClient(srv.URL, srv.Client())
	ctx := context.Background()
	q := ClusterQuery{Level: "flow", Epsilon: 1500, MinCard: 2}

	const batches = 8
	per := len(ds.Trajectories) / batches
	var wg sync.WaitGroup
	for i := 0; i < batches; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lo, hi := i*per, (i+1)*per
			if i == batches-1 {
				hi = len(ds.Trajectories)
			}
			sub := traj.Dataset{Trajectories: ds.Trajectories[lo:hi]}
			if _, err := c.Ingest(ctx, sub); err != nil {
				t.Errorf("ingest batch %d: %v", i, err)
			}
		}(i)
		// Interleave queries with the ingestions; any response is valid
		// as long as it reflects some committed prefix (the version
		// check enforces that), so only errors other than the empty-
		// dataset 409 conflict fail the test.
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Clusters(ctx, q); err != nil && !strings.Contains(err.Error(), "409") {
				t.Errorf("query: %v", err)
			}
			if _, err := c.Stats(ctx); err != nil {
				t.Errorf("stats: %v", err)
			}
		}()
	}
	wg.Wait()

	// After quiescence the cache must serve the full dataset, exactly
	// as a serial ingest of everything would.
	got, err := c.Clusters(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	ref := httptest.NewServer(New(g, Config{DataNodes: 1}).Handler())
	defer ref.Close()
	rc := NewClient(ref.URL, ref.Client())
	if _, err := rc.Ingest(ctx, ds); err != nil {
		t.Fatal(err)
	}
	want, err := rc.Clusters(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	// Flow sets must match exactly; ingestion order differs across the
	// concurrent batches, so compare as multisets of routes.
	if len(got.Flows) != len(want.Flows) {
		t.Fatalf("flows = %d, want %d", len(got.Flows), len(want.Flows))
	}
	if !sameFlowMultiset(got.Flows, want.Flows) {
		t.Errorf("flow multisets differ:\n got %v\nwant %v", got.Flows, want.Flows)
	}
	hits := reg.Counter("server_cache_hits_total", obs.L("session", "default")).Value()
	misses := reg.Counter("server_cache_misses_total", obs.L("session", "default")).Value()
	if misses == 0 {
		t.Error("no cache misses recorded despite clustering")
	}
	t.Logf("cache: %d hits, %d misses under concurrency", hits, misses)
}

func sameFlowMultiset(a, b []FlowDTO) bool {
	key := func(f FlowDTO) string { return fmt.Sprintf("%v|%d|%d", f.Route, f.Cardinality, f.Density) }
	count := map[string]int{}
	for _, f := range a {
		count[key(f)]++
	}
	for _, f := range b {
		count[key(f)]--
	}
	for _, n := range count {
		if n != 0 {
			return false
		}
	}
	return true
}

func TestStatsBuildInfo(t *testing.T) {
	g, _ := testSetup(t)
	srv := httptest.NewServer(New(g, Config{}).Handler())
	defer srv.Close()
	stats, err := NewClient(srv.URL, srv.Client()).Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Build.GoVersion == "" || stats.Build.Module == "" {
		t.Errorf("build info empty: %+v", stats.Build)
	}
	if reflect.DeepEqual(stats.Build, BuildDTO{}) {
		t.Error("build info is the zero value")
	}
}
