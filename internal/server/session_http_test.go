package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/mapgen"
	"repro/internal/mobisim"
	"repro/internal/neat"
	"repro/internal/persist"
	"repro/internal/roadnet"
	"repro/internal/session"
	"repro/internal/shortest"
	"repro/internal/traj"
)

// tenantSetup builds an independent graph+dataset pair per seed, so
// multi-tenant tests exercise heterogeneous topologies.
func tenantSetup(t testing.TB, seed int64, objects int) (*roadnet.Graph, traj.Dataset) {
	t.Helper()
	g, err := mapgen.Generate(mapgen.Config{
		Name:            fmt.Sprintf("tenant%d", seed),
		TargetJunctions: 200,
		TargetSegments:  280,
		AvgSegLenM:      150,
		MaxDegree:       6,
		Seed:            seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, _, err := mobisim.New(g).Simulate(mobisim.DefaultConfig("tenant", objects, seed))
	if err != nil {
		t.Fatal(err)
	}
	return g, ds
}

// TestUnknownSessionReturns404 pins the contract for every
// session-scoped route: a ?session= naming nothing is 404 with a JSON
// body quoting the name — not a 500, and never a silent fallback to
// the default session.
func TestUnknownSessionReturns404(t *testing.T) {
	g, _ := testSetup(t)
	srv := httptest.NewServer(New(g, Config{DataNodes: 2}).Handler())
	defer srv.Close()

	cases := []struct{ method, path string }{
		{http.MethodPost, "/v1/trajectories?session=nope"},
		{http.MethodGet, "/v1/trajectories/query?session=nope&x0=0&y0=0&x1=1&y1=1&t0=0&t1=1"},
		{http.MethodGet, "/v1/clusters?session=nope"},
		{http.MethodGet, "/v1/network?session=nope"},
		{http.MethodGet, "/v1/stats?session=nope"},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(`{"trajectories":[]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", tc.method, tc.path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: status %d (%s), want 404", tc.method, tc.path, resp.StatusCode, body)
			continue
		}
		var e ErrorResponse
		if err := json.Unmarshal(body, &e); err != nil {
			t.Errorf("%s %s: non-JSON 404 body %q", tc.method, tc.path, body)
			continue
		}
		if want := `unknown session "nope"`; e.Error != want {
			t.Errorf("%s %s: error %q, want %q", tc.method, tc.path, e.Error, want)
		}
	}
}

// TestSessionsAdminAPI drives the /v1/sessions lifecycle through the
// client: create from a region preset, list, per-session stats,
// duplicate and validation rejections, delete, delete-unknown.
func TestSessionsAdminAPI(t *testing.T) {
	g, _ := testSetup(t)
	srv := httptest.NewServer(New(g, Config{DataNodes: 2}).Handler())
	defer srv.Close()
	c := NewClient(srv.URL, srv.Client())
	ctx := context.Background()

	dto, err := c.CreateSession(ctx, CreateSessionRequest{Name: "alpha", Region: "SJ", Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if dto.Name != "alpha" || dto.Junctions == 0 || dto.Segments == 0 {
		t.Fatalf("create returned %+v", dto)
	}
	if dto.Durable {
		t.Fatal("in-memory server reported a durable session")
	}

	if _, err := c.CreateSession(ctx, CreateSessionRequest{Name: "alpha"}); err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("duplicate create: %v, want 409", err)
	}
	if _, err := c.CreateSession(ctx, CreateSessionRequest{Name: "omega", Region: "XX"}); err == nil ||
		!strings.Contains(err.Error(), "unknown region") || !strings.Contains(err.Error(), "400") {
		t.Fatalf("unknown region: %v, want 400 listing presets", err)
	}
	if _, err := c.CreateSession(ctx, CreateSessionRequest{Name: "has space"}); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("invalid name: %v, want 400", err)
	}
	for _, scale := range []float64{1.5, 1e6, -0.5} {
		if _, err := c.CreateSession(ctx, CreateSessionRequest{Name: "huge", Region: "SJ", Scale: scale}); err == nil ||
			!strings.Contains(err.Error(), "bad scale") || !strings.Contains(err.Error(), "400") {
			t.Fatalf("scale %g: %v, want 400 bad scale", scale, err)
		}
	}

	ls, err := c.Sessions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(ls.Sessions))
	for _, s := range ls.Sessions {
		names = append(names, s.Name)
	}
	if len(names) != 2 || names[0] != "alpha" && names[1] != "alpha" {
		t.Fatalf("sessions = %v, want default+alpha", names)
	}

	st, err := c.Session("alpha").Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Session != "alpha" || st.Sessions != 2 || st.Junctions != dto.Junctions {
		t.Fatalf("alpha stats: session=%q sessions=%d junctions=%d, want alpha/2/%d",
			st.Session, st.Sessions, st.Junctions, dto.Junctions)
	}

	if err := c.DeleteSession(ctx, "alpha"); err != nil {
		t.Fatal(err)
	}
	if ls, err = c.Sessions(ctx); err != nil || len(ls.Sessions) != 1 {
		t.Fatalf("after delete: %v sessions, err %v", len(ls.Sessions), err)
	}
	if err := c.DeleteSession(ctx, "alpha"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("delete unknown: %v, want 404", err)
	}
	if err := c.DeleteSession(ctx, "default"); err == nil {
		t.Fatal("deleting the default session must be rejected")
	}
}

// TestSessionsMatchIndependentServers is the tenant-equivalence
// invariant: N sessions ingesting concurrently on one server produce,
// per session, the same responses as N single-tenant servers fed the
// same batches serially — raw bytes for the query and network routes,
// and the full cluster response modulo its elapsed-time field. Run
// under -race this also exercises snapshot reads racing ingest.
func TestSessionsMatchIndependentServers(t *testing.T) {
	const n = 3
	cfg := Config{DataNodes: 2}
	g0, _ := testSetup(t)
	multi := New(g0, cfg)

	type tenant struct {
		name string
		ds   traj.Dataset
		ref  *httptest.Server
	}
	tenants := make([]*tenant, n)
	for i := range tenants {
		g, ds := tenantSetup(t, int64(100+i), 24)
		name := fmt.Sprintf("t%d", i)
		if _, err := multi.Sessions().Create(name, g, session.CreateOptions{}); err != nil {
			t.Fatal(err)
		}
		ref := httptest.NewServer(New(g, cfg).Handler())
		defer ref.Close()
		tenants[i] = &tenant{name: name, ds: ds, ref: ref}
	}
	ms := httptest.NewServer(multi.Handler())
	defer ms.Close()

	batches := func(ds traj.Dataset) []traj.Dataset {
		third := len(ds.Trajectories) / 3
		return []traj.Dataset{
			{Trajectories: ds.Trajectories[:third]},
			{Trajectories: ds.Trajectories[third : 2*third]},
			{Trajectories: ds.Trajectories[2*third:]},
		}
	}

	// Concurrent ingest into the shared server: one writer per tenant,
	// with readers sweeping every tenant's read routes throughout.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, tn := range tenants {
				resp, err := ms.Client().Get(ms.URL + "/v1/stats?session=" + tn.name)
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}
	}()
	var wg sync.WaitGroup
	errCh := make(chan error, n)
	for _, tn := range tenants {
		wg.Add(1)
		go func(tn *tenant) {
			defer wg.Done()
			c := NewClient(ms.URL, ms.Client()).Session(tn.name)
			for bi, b := range batches(tn.ds) {
				if _, err := c.Ingest(context.Background(), b); err != nil {
					errCh <- fmt.Errorf("%s batch %d: %v", tn.name, bi, err)
					return
				}
			}
		}(tn)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Serial reference ingest, same batch boundaries.
	for _, tn := range tenants {
		c := NewClient(tn.ref.URL, tn.ref.Client())
		for _, b := range batches(tn.ds) {
			if _, err := c.Ingest(context.Background(), b); err != nil {
				t.Fatal(err)
			}
		}
	}

	rawGet := func(url string) []byte {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d (%s)", url, resp.StatusCode, body)
		}
		return body
	}
	const queryPath = "/v1/trajectories/query?x0=-1e9&y0=-1e9&x1=1e9&y1=1e9&t0=0&t1=1e12"
	const clustersPath = "/v1/clusters?eps=2000&mincard=2"
	for _, tn := range tenants {
		if got, want := rawGet(ms.URL+queryPath+"&session="+tn.name), rawGet(tn.ref.URL+queryPath); !bytes.Equal(got, want) {
			t.Errorf("%s query diverged:\n got %s\nwant %s", tn.name, got, want)
		}
		if got, want := rawGet(ms.URL+"/v1/network?session="+tn.name), rawGet(tn.ref.URL+"/v1/network"); !bytes.Equal(got, want) {
			t.Errorf("%s network diverged (%d vs %d bytes)", tn.name, len(got), len(want))
		}
		var got, want ClusterResponse
		if err := json.Unmarshal(rawGet(ms.URL+clustersPath+"&session="+tn.name), &got); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(rawGet(tn.ref.URL+clustersPath), &want); err != nil {
			t.Fatal(err)
		}
		got.ElapsedMs, want.ElapsedMs = 0, 0
		jg, _ := json.Marshal(got)
		jw, _ := json.Marshal(want)
		if !bytes.Equal(jg, jw) {
			t.Errorf("%s clusters diverged:\n got %s\nwant %s", tn.name, jg, jw)
		}
	}
}

// TestDefaultSessionMatchesDirectPipeline is the back-compat
// differential: an unnamed-session server must answer /v1/clusters
// with exactly what a serial partitioner plus a direct NEAT pipeline
// run produces over the same dataset — the session layer adds tenancy,
// not semantics.
func TestDefaultSessionMatchesDirectPipeline(t *testing.T) {
	g, ds := testSetup(t)
	srv := httptest.NewServer(New(g, Config{DataNodes: 3}).Handler())
	defer srv.Close()
	c := NewClient(srv.URL, srv.Client())
	ctx := context.Background()
	if _, err := c.Ingest(ctx, ds); err != nil {
		t.Fatal(err)
	}
	got, err := c.Clusters(ctx, ClusterQuery{Level: "opt", Epsilon: 1500, MinCard: 3})
	if err != nil {
		t.Fatal(err)
	}

	p := traj.NewPartitioner(g, shortest.New(g, nil))
	var frags []traj.TFragment
	for _, tr := range ds.Trajectories {
		fs, err := p.Partition(tr)
		if err != nil {
			t.Fatal(err)
		}
		frags = append(frags, fs...)
	}
	cfg := neat.Config{
		Flow:   neat.FlowConfig{Weights: neat.WeightsFlowOnly, MinCard: 3},
		Refine: neat.RefineConfig{Epsilon: 1500, UseELB: true, Bounded: true},
	}
	plan, err := neat.NewPlan(cfg, neat.LevelOpt, neat.FromFragments, neat.Exec{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := neat.NewPipeline(g).RunPlanCtx(ctx, plan, neat.Input{Fragments: frags})
	if err != nil {
		t.Fatal(err)
	}
	want := ClusterResponse{Level: res.Level.String(), BaseClusters: len(res.BaseClusters)}
	for _, f := range res.Flows {
		want.Flows = append(want.Flows, flowDTO(g, f))
	}
	for _, cl := range res.Clusters {
		dto := ClusterDTO{Cardinality: cl.Cardinality()}
		for _, f := range cl.Flows {
			dto.Flows = append(dto.Flows, flowDTO(g, f))
		}
		want.Clusters = append(want.Clusters, dto)
	}
	got.ElapsedMs = 0
	jg, _ := json.Marshal(got)
	jw, _ := json.Marshal(want)
	if !bytes.Equal(jg, jw) {
		t.Fatalf("default session diverged from the direct pipeline:\n got %s\nwant %s", jg, jw)
	}
}

// TestTwoTenantCrashRecovery kills a durable two-session server
// in-process (Abort: no clean close, no final checkpoint) and reopens
// it over the same data directory: both tenants must come back with
// their batches replayed into their own namespaces — default at the
// root for back-compat, beta under sessions/beta — and stay fully
// queryable.
func TestTwoTenantCrashRecovery(t *testing.T) {
	g, ds := testSetup(t)
	bg, bds := tenantSetup(t, 321, 24)
	dir := t.TempDir()
	cfg := Config{DataNodes: 2, Persist: &persist.Options{Dir: dir}}
	srv, err := Open(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Sessions().Create("beta", bg, session.CreateOptions{}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	c := NewClient(ts.URL, ts.Client())
	ctx := context.Background()
	ing1, err := c.Ingest(ctx, ds)
	if err != nil {
		t.Fatal(err)
	}
	ing2, err := c.Session("beta").Ingest(ctx, bds)
	if err != nil {
		t.Fatal(err)
	}
	ts.Close()
	srv.Abort()

	re, err := Open(g, cfg)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer re.Close()
	ts2 := httptest.NewServer(re.Handler())
	defer ts2.Close()
	c2 := NewClient(ts2.URL, ts2.Client())

	st, err := c2.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sessions != 2 || st.Session != "default" {
		t.Fatalf("recovered %d sessions as %q, want 2 as default", st.Sessions, st.Session)
	}
	if st.TotalFragments != ing1.TotalFragments || st.Trajectories != ing1.Accepted {
		t.Fatalf("default recovered %d fragments / %d trajectories, want %d / %d",
			st.TotalFragments, st.Trajectories, ing1.TotalFragments, ing1.Accepted)
	}
	if st.Persistence == nil || st.Persistence.Dir != dir || st.Persistence.RecoveredBatches != 1 {
		t.Fatalf("default persistence %+v, want dir %q with 1 recovered batch", st.Persistence, dir)
	}

	bst, err := c2.Session("beta").Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if bst.Session != "beta" || bst.TotalFragments != ing2.TotalFragments || bst.Trajectories != ing2.Accepted {
		t.Fatalf("beta recovered as %q with %d fragments / %d trajectories, want beta with %d / %d",
			bst.Session, bst.TotalFragments, bst.Trajectories, ing2.TotalFragments, ing2.Accepted)
	}
	if bst.Junctions != bg.NumNodes() || bst.Segments != bg.NumSegments() {
		t.Fatalf("beta graph recovered with %d/%d nodes/segments, want %d/%d",
			bst.Junctions, bst.Segments, bg.NumNodes(), bg.NumSegments())
	}
	wantDir := persist.Namespace(dir, "beta")
	if bst.Persistence == nil || bst.Persistence.Dir != wantDir || bst.Persistence.RecoveredBatches != 1 {
		t.Fatalf("beta persistence %+v, want dir %q with 1 recovered batch", bst.Persistence, wantDir)
	}

	for _, cl := range []*Client{c2, c2.Session("beta")} {
		if _, err := cl.Clusters(ctx, ClusterQuery{Epsilon: 2000, MinCard: 2}); err != nil {
			t.Fatalf("post-recovery clustering: %v", err)
		}
	}
}
