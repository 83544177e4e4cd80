package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/traj"
)

func subset(ds traj.Dataset, lo, hi int) traj.Dataset {
	return traj.Dataset{Name: ds.Name, Trajectories: ds.Trajectories[lo:hi]}
}

// TestIngestRateLimited429 pins gate 1: with a frozen clock and a
// one-request bucket, the second ingest is shed with 429 + Retry-After
// before the body is decoded, and the shed is counted on the
// per-session reason="rate_limit" series — not the global queue series.
func TestIngestRateLimited429(t *testing.T) {
	g, ds := testSetup(t)
	clk := guard.NewManualClock(time.Unix(1_700_000_000, 0))
	reg := obs.NewRegistry()
	srv := httptest.NewServer(New(g, Config{DataNodes: 2, Obs: reg, Guard: guard.Config{
		Limits: guard.Limits{IngestQPS: 1, IngestBurst: 1},
		Now:    clk.Now,
	}}).Handler())
	defer srv.Close()
	c := NewClient(srv.URL, srv.Client())
	ctx := context.Background()

	if _, err := c.Ingest(ctx, subset(ds, 0, 5)); err != nil {
		t.Fatalf("first ingest (full bucket): %v", err)
	}
	resp, err := http.Post(srv.URL+"/v1/trajectories", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second ingest under a frozen clock: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After")
	}
	def := obs.L("session", "default")
	if got := reg.Counter("neat_shed_requests_total", def, obs.L("reason", "rate_limit")).Value(); got != 1 {
		t.Errorf("rate_limit shed counter = %d, want 1", got)
	}
	if got := reg.Counter("neat_guard_rate_limited_total", def, obs.L("kind", "requests")).Value(); got != 1 {
		t.Errorf("guard rate-limited counter = %d, want 1", got)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Guard == nil || st.Guard.RateLimitedRequests != 1 {
		t.Fatalf("stats guard = %+v, want RateLimitedRequests 1", st.Guard)
	}

	// Advancing the injected clock refills the bucket: deterministic
	// recovery with no wall-clock dependence.
	clk.Advance(time.Second)
	if _, err := c.Ingest(ctx, subset(ds, 5, 10)); err != nil {
		t.Fatalf("ingest after refill: %v", err)
	}
}

// TestIngestPointBudget429 pins gate 2: a batch within the request
// budget but over the point budget is shed once the bucket is drained,
// with its own reason label.
func TestIngestPointBudget429(t *testing.T) {
	g, ds := testSetup(t)
	clk := guard.NewManualClock(time.Unix(1_700_000_000, 0))
	reg := obs.NewRegistry()
	srv := httptest.NewServer(New(g, Config{DataNodes: 2, Obs: reg, Guard: guard.Config{
		Limits: guard.Limits{PointsPerSec: 10, PointBurst: 10},
		Now:    clk.Now,
	}}).Handler())
	defer srv.Close()
	c := NewClient(srv.URL, srv.Client())
	ctx := context.Background()

	// An oversized batch clamps to the burst and drains the bucket...
	if _, err := c.Ingest(ctx, subset(ds, 0, 5)); err != nil {
		t.Fatalf("first ingest: %v", err)
	}
	// ...so the next one is shed.
	_, err := c.Ingest(ctx, subset(ds, 5, 10))
	if err == nil || !strings.Contains(err.Error(), "point budget") {
		t.Fatalf("drained point bucket: err %v, want point-budget 429", err)
	}
	if got := reg.Counter("neat_shed_requests_total", obs.L("session", "default"), obs.L("reason", "point_budget")).Value(); got != 1 {
		t.Errorf("point_budget shed counter = %d, want 1", got)
	}
}

// TestSessionLimitsAPI drives the per-session override endpoint:
// defaults read back, overrides apply (and enforce), bad input,
// unknown fields and unknown sessions are rejected.
func TestSessionLimitsAPI(t *testing.T) {
	g, ds := testSetup(t)
	clk := guard.NewManualClock(time.Unix(1_700_000_000, 0))
	srv := httptest.NewServer(New(g, Config{DataNodes: 2, Guard: guard.Config{Now: clk.Now}}).Handler())
	defer srv.Close()
	c := NewClient(srv.URL, srv.Client())
	ctx := context.Background()

	var lim SessionLimitsDTO
	if err := c.do(ctx, http.MethodGet, "/v1/sessions/limits?session=default", nil, &lim); err != nil {
		t.Fatal(err)
	}
	if lim.Session != "default" || lim.IngestQPS != 0 {
		t.Fatalf("default limits = %+v, want unlimited", lim)
	}

	want := SessionLimitsDTO{Session: "default", IngestQPS: 1, IngestBurst: 1}
	var got SessionLimitsDTO
	if err := c.do(ctx, http.MethodPost, "/v1/sessions/limits", want, &got); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("applied limits = %+v, want %+v", got, want)
	}
	if err := c.do(ctx, http.MethodGet, "/v1/sessions/limits?session=default", nil, &got); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("read-back limits = %+v, want %+v", got, want)
	}

	// The override is live: the one-request bucket now enforces.
	if _, err := c.Ingest(ctx, subset(ds, 0, 3)); err != nil {
		t.Fatalf("ingest inside new budget: %v", err)
	}
	if _, err := c.Ingest(ctx, subset(ds, 3, 6)); err == nil || !strings.Contains(err.Error(), "rate limited") {
		t.Fatalf("override not enforced: err %v", err)
	}

	if err := c.do(ctx, http.MethodPost, "/v1/sessions/limits",
		SessionLimitsDTO{Session: "nope"}, nil); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown session: err %v, want 404", err)
	}
	if err := c.do(ctx, http.MethodPost, "/v1/sessions/limits",
		SessionLimitsDTO{Session: "default", IngestQPS: -1}, nil); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("negative limit: err %v, want 400", err)
	}
	if err := c.do(ctx, http.MethodPost, "/v1/sessions/limits",
		json.RawMessage(`{"session":"default","max_concurrency":4}`), nil); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("unknown field: err %v, want 400", err)
	}
	if err := c.do(ctx, http.MethodGet, "/v1/sessions/limits?session=default", nil, &got); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("limits after rejected POSTs = %+v, want %+v", got, want)
	}
}

// TestQuarantineLifecycleHTTP drives the breaker end to end over HTTP:
// consecutive injected ingest failures trip the session open; reads
// then serve the last-good clustering flagged stale while writes shed
// 503 with Retry-After; after the (injected-clock) cooldown a probe
// ingest heals it and fresh reads resume.
func TestQuarantineLifecycleHTTP(t *testing.T) {
	g, ds := testSetup(t)
	clk := guard.NewManualClock(time.Unix(1_700_000_000, 0))
	reg := obs.NewRegistry()
	inj := fault.New(fault.Config{Seed: 4, Points: map[fault.Point]fault.Spec{
		fault.Ingest: {ErrProb: 1},
	}})
	inj.SetEnabled(false)
	s := New(g, Config{DataNodes: 2, Obs: reg, Fault: inj, Guard: guard.Config{
		Breaker: guard.BreakerConfig{TripAfter: 2, Cooldown: 10 * time.Second},
		Now:     clk.Now,
	}})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := NewClient(srv.URL, srv.Client())
	ctx := context.Background()
	q := ClusterQuery{Level: "flow", Epsilon: 1500, MinCard: 3}

	if _, err := c.Ingest(ctx, subset(ds, 0, 30)); err != nil {
		t.Fatal(err)
	}
	fresh, err := c.Clusters(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Stale {
		t.Fatal("healthy read flagged stale")
	}

	// Two consecutive injected failures: breaker trips open.
	inj.SetEnabled(true)
	for i := 0; i < 2; i++ {
		if _, err := c.Ingest(ctx, subset(ds, 30, 40)); err == nil {
			t.Fatalf("faulted ingest %d succeeded", i)
		}
	}
	var sessions SessionsResponse
	if sessions, err = c.Sessions(ctx); err != nil {
		t.Fatal(err)
	}
	if len(sessions.Sessions) != 1 || !sessions.Sessions[0].Quarantined || sessions.Sessions[0].BreakerState != "open" {
		t.Fatalf("session list after trip = %+v, want quarantined/open", sessions.Sessions)
	}

	// Reads: last-good, explicitly stale, same clustering.
	stale, err := c.Clusters(ctx, q)
	if err != nil {
		t.Fatalf("quarantined read: %v", err)
	}
	if !stale.Stale {
		t.Fatal("quarantined read not flagged stale")
	}
	if len(stale.Flows) != len(fresh.Flows) || stale.BaseClusters != fresh.BaseClusters {
		t.Fatal("stale read does not match the last-good clustering")
	}

	// Writes: shed with 503 + Retry-After, counted under its reason.
	// (The batch is syntactically valid: the breaker gate sits at the
	// head of Ingest, ahead of any per-trajectory work.)
	resp, err := http.Post(srv.URL+"/v1/trajectories", "application/json",
		strings.NewReader(`{"trajectories":[{"id":99999}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("quarantined write: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("quarantined 503 carries no Retry-After")
	}
	if got := reg.Counter("neat_shed_requests_total", obs.L("session", "default"), obs.L("reason", "quarantined")).Value(); got != 1 {
		t.Errorf("quarantined shed counter = %d, want 1", got)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Guard == nil || st.Guard.BreakerState != "open" || st.Guard.Trips != 1 {
		t.Fatalf("stats guard after trip = %+v", st.Guard)
	}
	if got := reg.Gauge("neat_guard_breaker_state", obs.L("session", "default")).Value(); got != float64(guard.Open) {
		t.Errorf("breaker state gauge = %g, want %g", got, float64(guard.Open))
	}

	// Frozen clock: still quarantined no matter how much wall time passes.
	if _, err := c.Ingest(ctx, subset(ds, 30, 40)); err == nil {
		t.Fatal("frozen cooldown elapsed on its own")
	}

	// Heal: clear the fault, advance the injected clock, probe.
	inj.SetEnabled(false)
	clk.Advance(10 * time.Second)
	if _, err := c.Ingest(ctx, subset(ds, 30, 40)); err != nil {
		t.Fatalf("probe ingest: %v", err)
	}
	if st, err = c.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	if st.Guard.BreakerState != "closed" || st.Guard.Heals != 1 {
		t.Fatalf("stats guard after heal = %+v, want closed with 1 heal", st.Guard)
	}
	healed, err := c.Clusters(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if healed.Stale {
		t.Fatal("post-heal read still stale")
	}
	if st.Trajectories != 40 {
		t.Fatalf("trajectories after heal = %d, want 40 (30 committed + 10 probe)", st.Trajectories)
	}
}

// TestClientRetriesShedRequests pins the retry satellite: 429/503
// responses are retried under the policy, honoring Retry-After over
// the computed backoff, and give up after MaxRetries.
func TestClientRetriesShedRequests(t *testing.T) {
	var attempts atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) <= 2 {
			w.Header().Set("Retry-After", "2")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"rate limited"}`))
			return
		}
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()

	var slept []time.Duration
	c := NewClient(srv.URL, srv.Client()).WithRetry(RetryPolicy{MaxRetries: 3, BaseDelay: 8 * time.Millisecond})
	c.sleep = func(_ context.Context, d time.Duration) error { slept = append(slept, d); return nil }
	c.jitter = func() float64 { return 0.5 }

	if _, err := c.Stats(context.Background()); err != nil {
		t.Fatalf("retried GET failed: %v", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("attempts = %d, want 3 (two sheds, one success)", got)
	}
	if len(slept) != 2 || slept[0] != 2*time.Second || slept[1] != 2*time.Second {
		t.Fatalf("backoffs = %v, want Retry-After (2s) to dominate", slept)
	}

	// Exhaustion: a server that always sheds burns MaxRetries+1 attempts
	// and surfaces the last error.
	attempts.Store(0)
	slept = nil
	always := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer always.Close()
	c2 := NewClient(always.URL, always.Client()).WithRetry(RetryPolicy{MaxRetries: 2, BaseDelay: 8 * time.Millisecond})
	c2.sleep = func(_ context.Context, d time.Duration) error { slept = append(slept, d); return nil }
	c2.jitter = func() float64 { return 0 }
	if _, err := c2.Stats(context.Background()); err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("exhausted retries: err %v, want 503", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("attempts = %d, want 3 (initial + 2 retries)", got)
	}
	// No Retry-After: pure equal-jitter backoff, doubling per attempt.
	if len(slept) != 2 || slept[0] != 4*time.Millisecond || slept[1] != 8*time.Millisecond {
		t.Fatalf("backoffs = %v, want [4ms 8ms]", slept)
	}
}

// TestClientNeverRetriesAmbiguousPost pins the safety half of the
// retry contract: when the connection drops before a response, a POST
// is NOT replayed (the server may have committed it — a retry could
// double-ingest), while a GET of the same shape is.
func TestClientNeverRetriesAmbiguousPost(t *testing.T) {
	var attempts atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		conn, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Fatal(err)
		}
		conn.Close() // drop mid-request: the client sees EOF, no status
	}))
	defer srv.Close()

	c := NewClient(srv.URL, srv.Client()).WithRetry(RetryPolicy{MaxRetries: 3, BaseDelay: time.Millisecond})
	c.sleep = func(context.Context, time.Duration) error { return nil }

	if _, err := c.Ingest(context.Background(), traj.Dataset{Trajectories: []traj.Trajectory{{ID: 1}}}); err == nil {
		t.Fatal("ambiguous POST reported success")
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("ambiguous POST attempted %d times, want exactly 1", got)
	}

	attempts.Store(0)
	if _, err := c.Stats(context.Background()); err == nil {
		t.Fatal("GET against a dropping server succeeded")
	}
	if got := attempts.Load(); got != 4 {
		t.Fatalf("idempotent GET attempted %d times, want 4 (initial + 3 retries)", got)
	}
}
