package session

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/mapgen"
	"repro/internal/mobisim"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

func testGraph(t testing.TB, seed int64) *roadnet.Graph {
	t.Helper()
	g, err := mapgen.Generate(mapgen.Config{
		Name:            fmt.Sprintf("sess%d", seed),
		TargetJunctions: 200,
		TargetSegments:  280,
		AvgSegLenM:      150,
		MaxDegree:       6,
		Seed:            seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testDataset(t testing.TB, g *roadnet.Graph, objects int, seed int64) traj.Dataset {
	t.Helper()
	ds, _, err := mobisim.New(g).Simulate(mobisim.DefaultConfig("sess", objects, seed))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func ingestDataset(t testing.TB, s *Session, ds traj.Dataset) IngestStats {
	t.Helper()
	ids := make([]traj.ID, len(ds.Trajectories))
	for i, tr := range ds.Trajectories {
		ids[i] = tr.ID
	}
	st, err := s.Ingest(context.Background(), ids, func(i int) (traj.Trajectory, error) {
		return ds.Trajectories[i], nil
	})
	if err != nil {
		t.Fatalf("ingest into %q: %v", s.Name(), err)
	}
	return st
}

// TestRegistryRecoversNamedNamespaces pins the boot contract: every
// named session created on a durable registry comes back after a
// crash, with its own graph and dataset, while the default session
// keeps the data-directory root (so a pre-multi-tenancy directory
// recovers unchanged) — and an interrupted create's debris directory
// (no network.csv) is skipped, not fatal.
func TestRegistryRecoversNamedNamespaces(t *testing.T) {
	dir := t.TempDir()
	mk := func() *Registry {
		r, err := NewRegistry(Options{
			Graph:   testGraph(t, 1),
			Persist: &persist.Options{Dir: dir},
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r := mk()
	gBeta := testGraph(t, 2)
	beta, err := r.Create("beta", gBeta, CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defIngest := ingestDataset(t, r.Default(), testDataset(t, r.Default().Graph(), 12, 3))
	betaIngest := ingestDataset(t, beta, testDataset(t, gBeta, 8, 4))
	// Simulate an interrupted create: a namespace directory without a
	// persisted network.
	if err := os.MkdirAll(persist.Namespace(dir, "debris"), 0o755); err != nil {
		t.Fatal(err)
	}
	r.Abort() // kill -9: no final checkpoints, recovery replays the WAL

	r2 := mk()
	defer r2.Close()
	if r2.Len() != 2 {
		names := make([]string, 0, r2.Len())
		for _, s := range r2.List() {
			names = append(names, s.Name())
		}
		t.Fatalf("recovered %d sessions (%v), want default + beta", r2.Len(), names)
	}
	if _, err := r2.Get("debris"); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("debris namespace recovered as a session: %v", err)
	}
	def2 := r2.Default()
	if def2.RecoveredBatches() != 1 || len(def2.Current().Fragments) != defIngest.TotalFragments {
		t.Fatalf("default session recovered %d batches / %d fragments, want 1 / %d",
			def2.RecoveredBatches(), len(def2.Current().Fragments), defIngest.TotalFragments)
	}
	beta2, err := r2.Get("beta")
	if err != nil {
		t.Fatal(err)
	}
	if beta2.RecoveredBatches() != 1 || len(beta2.Current().Fragments) != betaIngest.TotalFragments {
		t.Fatalf("beta recovered %d batches / %d fragments, want 1 / %d",
			beta2.RecoveredBatches(), len(beta2.Current().Fragments), betaIngest.TotalFragments)
	}
	if beta2.Graph().NumSegments() != gBeta.NumSegments() {
		t.Fatalf("beta recovered over a different graph: %d segments, want %d",
			beta2.Graph().NumSegments(), gBeta.NumSegments())
	}
	// Namespacing layout: the default session owns the root, beta its
	// own subdirectory.
	if got := def2.PersistStats().Dir; got != dir {
		t.Errorf("default session dir = %q, want the root %q", got, dir)
	}
	if got := beta2.PersistStats().Dir; got != persist.Namespace(dir, "beta") {
		t.Errorf("beta dir = %q, want %q", got, persist.Namespace(dir, "beta"))
	}
	if _, err := os.Stat(filepath.Join(dir, "sessions", "beta", "network.csv")); err != nil {
		t.Errorf("beta's persisted network missing: %v", err)
	}
}

// TestRegistryCreateValidation pins the admin-surface edges: invalid
// names, the reserved default, duplicates, the session cap, and
// removal semantics.
func TestRegistryCreateValidation(t *testing.T) {
	g := testGraph(t, 5)
	r, err := NewRegistry(Options{Graph: g, MaxSessions: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, name := range []string{"", "default", "has space", "dots.are.paths", "../escape", strings.Repeat("x", 65)} {
		if _, err := r.Create(name, g, CreateOptions{}); err == nil {
			t.Errorf("Create(%q) accepted", name)
		}
	}
	if _, err := r.Create("a", g, CreateOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create("a", g, CreateOptions{}); !errors.Is(err, ErrSessionExists) {
		t.Errorf("duplicate create: %v", err)
	}
	if _, err := r.Create("b", g, CreateOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create("c", g, CreateOptions{}); !errors.Is(err, ErrTooManySessions) {
		t.Errorf("create beyond MaxSessions: %v", err)
	}
	if err := r.Remove("default"); err == nil {
		t.Error("removed the default session")
	}
	if err := r.Remove("nope"); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("remove unknown: %v", err)
	}
	if err := r.Remove("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create("c", g, CreateOptions{}); err != nil {
		t.Errorf("create after remove rejected: %v", err)
	}
	if _, err := r.Get("b"); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("removed session still resolvable: %v", err)
	}
}

// TestRegistryLabelCapOverflow pins the metrics-cardinality guard at
// the registry level: once MaxSessions distinct sessions have claimed
// their own label, later sessions record into session="other" — churn
// (remove + create) cannot grow the series space.
func TestRegistryLabelCapOverflow(t *testing.T) {
	g := testGraph(t, 6)
	reg := obs.NewRegistry()
	r, err := NewRegistry(Options{
		Graph:       g,
		Session:     Config{Obs: reg},
		MaxSessions: 3, // default, s1, s2 labelled; churned tenants overflow
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ds := testDataset(t, g, 6, 7)
	for i := 1; i <= 4; i++ {
		name := fmt.Sprintf("s%d", i)
		s, err := r.Create(name, g, CreateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ingestDataset(t, s, ds)
		if i >= 2 {
			// Churn: free the slot so the next create is admitted while
			// the label space stays spent.
			if err := r.Remove(name); err != nil {
				t.Fatal(err)
			}
		}
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, "server_ingest_trajectories_total{") {
			got[line[:strings.Index(line, "}")+1]] = true
		}
	}
	want := []string{
		`server_ingest_trajectories_total{session="default"}`,
		`server_ingest_trajectories_total{session="s1"}`,
		`server_ingest_trajectories_total{session="s2"}`,
		`server_ingest_trajectories_total{session="other"}`,
	}
	if len(got) != len(want) {
		t.Fatalf("series space grew past the cap: %v", got)
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("missing series %s in:\n%s", w, b.String())
		}
	}
}

// TestRegistrySharedBudget pins cross-session cache accounting: every
// session gets its own cache instance, and the live-entry sum across
// all of them never exceeds the one configured budget.
func TestRegistrySharedBudget(t *testing.T) {
	g := testGraph(t, 8)
	r, err := NewRegistry(Options{Graph: g, CacheEntries: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	a, err := r.Create("a", g, CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cache() == r.Default().Cache() {
		t.Fatal("sessions share one cache instance; isolation requires one per session")
	}
	for i := 0; i < 2000; i++ {
		r.Default().Cache().Store(uint64(i)<<32|uint64(i+1), float64(i), 0)
		a.Cache().Store(uint64(1_000_000+i)<<32|uint64(i+1), float64(i), 0)
	}
	sum := r.Default().Cache().Len() + a.Cache().Len()
	if sum > 256 {
		t.Fatalf("sessions hold %d cache entries over a budget of 256", sum)
	}
	if sum == 0 {
		t.Fatal("budgeted caches admitted nothing")
	}
}

// TestConcurrentSessionsIngestIsolated runs N sessions' ingests fully
// in parallel (meaningful under -race) with readers hammering every
// published snapshot, then checks each session holds exactly its own
// dataset — byte-for-byte the fragments a lone session ingesting the
// same batches produces.
func TestConcurrentSessionsIngestIsolated(t *testing.T) {
	const n = 4
	g := testGraph(t, 9)
	r, err := NewRegistry(Options{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	sessions := []*Session{r.Default()}
	for i := 1; i < n; i++ {
		s, err := r.Create(fmt.Sprintf("t%d", i), g, CreateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}
	datasets := make([]traj.Dataset, n)
	for i := range datasets {
		datasets[i] = testDataset(t, g, 10, int64(20+i))
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for _, s := range sessions {
		readers.Add(1)
		go func(s *Session) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sn := s.Current()
				for _, f := range sn.Fragments {
					_ = f.Traj
				}
			}
		}(s)
	}
	var wg sync.WaitGroup
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *Session) {
			defer wg.Done()
			// Three sequential batches per session; sessions interleave
			// freely.
			ds := datasets[i]
			third := len(ds.Trajectories) / 3
			for b := 0; b < 3; b++ {
				lo, hi := b*third, (b+1)*third
				if b == 2 {
					hi = len(ds.Trajectories)
				}
				ingestDataset(t, s, traj.Dataset{Trajectories: ds.Trajectories[lo:hi]})
			}
		}(i, s)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	for i, s := range sessions {
		solo, err := New("solo", g, Config{})
		if err != nil {
			t.Fatal(err)
		}
		ingestDataset(t, solo, datasets[i])
		got, want := s.Current(), solo.Current()
		if len(got.Fragments) != len(want.Fragments) || len(got.Trajs) != len(want.Trajs) {
			t.Fatalf("session %q: %d frags / %d trajs, solo %d / %d",
				s.Name(), len(got.Fragments), len(got.Trajs), len(want.Fragments), len(want.Trajs))
		}
		for j := range got.Fragments {
			if got.Fragments[j].Traj != want.Fragments[j].Traj ||
				got.Fragments[j].Seg != want.Fragments[j].Seg ||
				got.Fragments[j].Index != want.Fragments[j].Index {
				t.Fatalf("session %q fragment %d diverges from a lone session's", s.Name(), j)
			}
		}
	}
}

// TestIngestAtomicity pins the transactional contract: duplicates and
// conversion errors commit nothing and publish nothing.
func TestIngestAtomicity(t *testing.T) {
	g := testGraph(t, 10)
	s, err := New("x", g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ds := testDataset(t, g, 6, 11)
	ingestDataset(t, s, ds)
	before := s.Current()

	ids := []traj.ID{ds.Trajectories[0].ID}
	_, err = s.Ingest(context.Background(), ids, func(i int) (traj.Trajectory, error) {
		return ds.Trajectories[i], nil
	})
	var dup *DuplicateError
	if !errors.As(err, &dup) || dup.InBatch {
		t.Fatalf("re-ingest: %v, want DuplicateError{InBatch: false}", err)
	}
	if err.Error() != fmt.Sprintf("trajectory %d repeated in batch", ds.Trajectories[0].ID) &&
		err.Error() != fmt.Sprintf("trajectory %d already ingested", ds.Trajectories[0].ID) {
		t.Fatalf("duplicate message %q", err)
	}

	_, err = s.Ingest(context.Background(), []traj.ID{99, 99}, func(i int) (traj.Trajectory, error) {
		return traj.Trajectory{}, nil
	})
	if !errors.As(err, &dup) || !dup.InBatch {
		t.Fatalf("repeated-in-batch: %v", err)
	}

	_, err = s.Ingest(context.Background(), []traj.ID{100, 101}, func(i int) (traj.Trajectory, error) {
		if i == 1 {
			return traj.Trajectory{}, errors.New("boom")
		}
		tr := ds.Trajectories[0]
		tr.ID = 100
		return tr, nil
	})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("conversion error not surfaced: %v", err)
	}
	if s.Current() != before {
		t.Fatal("failed ingest published a snapshot")
	}
	if len(s.Current().Trajs) != len(ds.Trajectories) {
		t.Fatal("failed ingest committed trajectories")
	}
	// The failed batch's ids were rolled back: they ingest cleanly now.
	tr := ds.Trajectories[0]
	tr.ID = 100
	ingestDataset(t, s, traj.Dataset{Trajectories: []traj.Trajectory{tr}})
}
