package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/proptest"
)

// TestColdDiffuseReadWithinTimeout pins that a cold default read of a
// diffuse pool answers inside the request timeout. Uniform trips give
// about 200 flows at the default minCard, nearly every pair of them
// within the default ε. The paper's per-pair scan spends several times
// the timeout on point-to-point queries there (about 17 s on a 2-vCPU
// Xeon) and the read answers 503; the batched builder runs one bounded
// expansion per endpoint junction (about 0.13 s).
func TestColdDiffuseReadWithinTimeout(t *testing.T) {
	g, ds := proptest.BenchScenario(t, 700)
	const timeout = 3 * time.Second
	srv := httptest.NewServer(New(g, Config{RequestTimeout: timeout}).Handler())
	defer srv.Close()
	if _, err := NewClient(srv.URL, srv.Client()).Ingest(context.Background(), ds); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err := srv.Client().Get(srv.URL + "/v1/clusters")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		var e ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("cold default read answered %d after %v (timeout %v): %s", resp.StatusCode, elapsed, timeout, e.Error)
	}
	var body ClusterResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Stale {
		t.Fatalf("cold default read served stale after %v", elapsed)
	}
	t.Logf("cold default read: %d flows, %d clusters in %v", len(body.Flows), len(body.Clusters), elapsed)
}
