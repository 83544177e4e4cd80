package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/traj"
)

// TestReadsProceedDuringStalledIngest pins the snapshot read path's
// core guarantee: with an ingest deterministically parked inside the
// session's ingest lock (its convert callback blocks until released —
// the same lock a WAL stall or fault storm would pin), every read
// route still answers from the published snapshot. The old RWMutex
// server serialized reads behind exactly this stall.
func TestReadsProceedDuringStalledIngest(t *testing.T) {
	g, ds := testSetup(t)
	s := New(g, Config{DataNodes: 2})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := NewClient(srv.URL, srv.Client())
	ctx := context.Background()

	if _, err := c.Ingest(ctx, ds); err != nil {
		t.Fatal(err)
	}
	// Warm the read state so the stalled-phase reads exercise the
	// snapshot, not first-build latencies.
	if _, err := c.Clusters(ctx, ClusterQuery{Level: "flow", Epsilon: 1500, MinCard: 2}); err != nil {
		t.Fatal(err)
	}

	entered := make(chan struct{})
	release := make(chan struct{})
	ingestDone := make(chan error, 1)
	stalled := ds.Trajectories[0]
	stalled.ID = 9999
	go func() {
		_, err := s.Sessions().Default().Ingest(ctx, []traj.ID{stalled.ID}, func(int) (traj.Trajectory, error) {
			close(entered)
			<-release
			return stalled, nil
		})
		ingestDone <- err
	}()
	<-entered // the ingest now holds the session's ingest lock

	reads := []string{
		"/v1/clusters?level=flow&eps=1500&mincard=2",
		"/v1/stats",
		"/v1/network",
		"/v1/trajectories/query?x0=-1e9&y0=-1e9&x1=1e9&y1=1e9&t0=0&t1=1e12",
	}
	for _, path := range reads {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s during stalled ingest: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s during stalled ingest: status %d", path, resp.StatusCode)
		}
	}
	select {
	case err := <-ingestDone:
		t.Fatalf("ingest finished (err=%v) while its convert was parked", err)
	default:
		// Every read above completed while the ingest lock was held.
	}
	close(release)
	if err := <-ingestDone; err != nil {
		t.Fatalf("stalled ingest ultimately failed: %v", err)
	}
}

// TestMemoWaitHonoursDeadline stalls Phase 3 of the newest snapshot's
// reads (an injected latency on every shortest-path query) and checks
// the stale/503 contract for reads whose deadline expires inside it: a
// read gets its last-good response flagged stale, or a 503 with
// Retry-After when it has none, instead of blocking. The cancelled
// reads must store nothing: once the stall heals, the retried reads are
// byte-identical to uncontended ones. (A read queued behind a parked
// Phase 1–2 fold is the session package's TestSnapshotFlowsSharedComputation.)
func TestMemoWaitHonoursDeadline(t *testing.T) {
	g, ds := testSetup(t)
	stall := fault.New(fault.Config{Seed: 1, Points: map[fault.Point]fault.Spec{
		fault.SPQuery: {LatencyProb: 1, Latency: 20 * time.Millisecond},
	}})
	stall.SetEnabled(false)
	// No distance cache, so every Phase 3 read runs shortest paths.
	s := New(g, Config{DataNodes: 2, CacheEntries: -1, Fault: stall})
	h := s.Handler()
	ingest := func(h http.Handler, lo, hi int) {
		t.Helper()
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/trajectories", marshalIngest(t, traj.Dataset{Trajectories: ds.Trajectories[lo:hi]}))
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("ingest: %d %s", rec.Code, rec.Body.String())
		}
	}
	read := func(h http.Handler, ctx context.Context, path string) (int, ClusterResponse) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil).WithContext(ctx))
		var resp ClusterResponse
		if rec.Code == http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			resp.ElapsedMs = 0
		} else if rec.Header().Get("Retry-After") == "" {
			t.Fatalf("GET %s: %d without Retry-After", path, rec.Code)
		}
		return rec.Code, resp
	}
	const warm, cold = "/v1/clusters?eps=1500&mincard=2", "/v1/clusters?eps=900&mincard=3"
	ingest(h, 0, 30)
	if code, _ := read(h, context.Background(), warm); code != http.StatusOK {
		t.Fatalf("warm-up read: %d", code)
	}
	ingest(h, 30, len(ds.Trajectories))

	stall.SetEnabled(true)
	for _, tc := range []struct {
		path  string
		code  int
		stale bool
	}{{warm, http.StatusOK, true}, {cold, http.StatusServiceUnavailable, false}} {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		start := time.Now()
		code, resp := read(h, ctx, tc.path)
		cancel()
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("GET %s blocked %v in the stalled Phase 3", tc.path, d)
		}
		if code != tc.code || resp.Stale != tc.stale {
			t.Fatalf("GET %s in the stalled Phase 3: %d stale=%v, want %d stale=%v", tc.path, code, resp.Stale, tc.code, tc.stale)
		}
	}
	stall.SetEnabled(false)

	ref := New(g, Config{DataNodes: 2}).Handler()
	ingest(ref, 0, 30)
	ingest(ref, 30, len(ds.Trajectories))
	for _, path := range []string{warm, cold} {
		code, got := read(h, context.Background(), path)
		_, want := read(ref, context.Background(), path)
		if code != http.StatusOK || got.Stale {
			t.Fatalf("retry of %s after the stall: %d stale=%v", path, code, got.Stale)
		}
		gb, _ := json.Marshal(got)
		wb, _ := json.Marshal(want)
		if !bytes.Equal(gb, wb) {
			t.Fatalf("retry of %s diverges from an uncontended read:\n got %s\nwant %s", path, gb, wb)
		}
	}
}

// gatedWriter blocks the handler's first response Write until the
// test releases it — a slow client frozen mid-body.
type gatedWriter struct {
	h       http.Header
	started chan struct{}
	gate    chan struct{}
	once    sync.Once
}

func (w *gatedWriter) Header() http.Header { return w.h }
func (w *gatedWriter) WriteHeader(int)     {}
func (w *gatedWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.started) })
	<-w.gate
	return len(p), nil
}

// TestSlowClientDoesNotStallIngest is the encode-outside-the-lock
// regression test: a client that stops reading mid-response pins its
// handler inside the JSON encode, and ingest must still commit — the
// old server encoded /v1/clusters while holding the read lock, so one
// stuck client froze every write.
func TestSlowClientDoesNotStallIngest(t *testing.T) {
	g, ds := testSetup(t)
	h := New(g, Config{DataNodes: 2}).Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatal(rec.Body.String())
	}
	ingest := func(lo, hi int) *httptest.ResponseRecorder {
		body := marshalIngest(t, traj.Dataset{Trajectories: ds.Trajectories[lo:hi]})
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/trajectories", body)
		req.Header.Set("Content-Type", "application/json")
		h.ServeHTTP(rec, req)
		return rec
	}
	if rec := ingest(0, 30); rec.Code != http.StatusOK {
		t.Fatalf("baseline ingest: %d %s", rec.Code, rec.Body.String())
	}

	gw := &gatedWriter{h: make(http.Header), started: make(chan struct{}), gate: make(chan struct{})}
	clusterDone := make(chan struct{})
	go func() {
		defer close(clusterDone)
		h.ServeHTTP(gw, httptest.NewRequest(http.MethodGet, "/v1/clusters?level=flow&eps=1500&mincard=2", nil))
	}()
	<-gw.started // the handler is now frozen inside its response write

	ingestDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { ingestDone <- ingest(30, len(ds.Trajectories)) }()
	select {
	case rec := <-ingestDone:
		if rec.Code != http.StatusOK {
			t.Fatalf("ingest behind a slow client: %d %s", rec.Code, rec.Body.String())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ingest blocked behind a client stuck mid-response")
	}
	close(gw.gate)
	<-clusterDone
}

// BenchmarkQueryDuringIngest measures the read path while a writer
// continuously commits fresh batches — the latency a tenant's
// dashboard sees during another client's bulk load.
func BenchmarkQueryDuringIngest(b *testing.B) {
	g, ds := testSetup(b)
	h := New(g, Config{DataNodes: 2, MaxInflight: -1}).Handler()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/trajectories", marshalIngest(b, ds))
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatal(rec.Body.String())
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for off := int32(10_000); ; off += int32(len(ds.Trajectories)) {
			select {
			case <-stop:
				return
			default:
			}
			shifted := make([]traj.Trajectory, len(ds.Trajectories))
			copy(shifted, ds.Trajectories)
			for i := range shifted {
				shifted[i].ID += traj.ID(off)
			}
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/v1/trajectories", marshalIngest(b, traj.Dataset{Trajectories: shifted}))
			req.Header.Set("Content-Type", "application/json")
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Errorf("background ingest: %d %s", rec.Code, rec.Body.String())
				return
			}
		}
	}()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
				"/v1/trajectories/query?x0=-1e9&y0=-1e9&x1=1e9&y1=1e9&t0=0&t1=1e12", nil))
			if rec.Code != http.StatusOK {
				b.Fatalf("query: %d %s", rec.Code, rec.Body.String())
			}
		}
	})
	b.StopTimer()
	close(stop)
	wg.Wait()
}

func marshalIngest(t testing.TB, ds traj.Dataset) io.Reader {
	t.Helper()
	b, err := json.Marshal(FromDataset(ds))
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(b)
}
