package session

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/guard"
	"repro/internal/persist"
	"repro/internal/traj"
)

func ingestErr(s *Session, ds traj.Dataset) error {
	ids := make([]traj.ID, len(ds.Trajectories))
	for i, tr := range ds.Trajectories {
		ids[i] = tr.ID
	}
	_, err := s.Ingest(context.Background(), ids, func(i int) (traj.Trajectory, error) {
		return ds.Trajectories[i], nil
	})
	return err
}

// TestIngestPanicContainedAndRolledBack pins the containment contract:
// an injected mid-ingest panic must not kill the process, must leave
// no trace of the batch (the same ids ingest cleanly afterwards), and
// must surface as a typed *guard.PanicError.
func TestIngestPanicContainedAndRolledBack(t *testing.T) {
	g := testGraph(t, 11)
	inj := fault.New(fault.Config{Seed: 7, Points: map[fault.Point]fault.Spec{
		fault.IngestPanic: {ErrProb: 1},
	}})
	s, err := New("panicky", g, Config{Fault: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ds := testDataset(t, g, 8, 12)

	err = ingestErr(s, ds)
	var pe *guard.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("ingest under an injected panic returned %v, want *guard.PanicError", err)
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError carries no stack")
	}
	if v := s.Current().Version; v != 0 {
		t.Fatalf("panicked ingest published version %d, want 0 (full rollback)", v)
	}
	if got := s.Guard().Snapshot().Panics; got != 1 {
		t.Fatalf("guard counted %d panics, want 1", got)
	}

	inj.SetEnabled(false)
	st := ingestDataset(t, s, ds) // same ids: any seenIDs leak would reject as duplicates
	if st.Accepted != len(ds.Trajectories) {
		t.Fatalf("post-rollback ingest accepted %d, want %d", st.Accepted, len(ds.Trajectories))
	}
	if v := s.Current().Version; v != 1 {
		t.Fatalf("version %d after one committed batch, want 1", v)
	}
}

// TestPreprocessPanicContained pins the data-node worker containment:
// a convert callback that panics fails only its own batch, as a typed
// error, with the session intact.
func TestPreprocessPanicContained(t *testing.T) {
	g := testGraph(t, 13)
	s, err := New("workers", g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ds := testDataset(t, g, 4, 14)
	ids := make([]traj.ID, len(ds.Trajectories))
	for i, tr := range ds.Trajectories {
		ids[i] = tr.ID
	}
	_, err = s.Ingest(context.Background(), ids, func(i int) (traj.Trajectory, error) {
		if i == 1 {
			panic("hostile convert")
		}
		return ds.Trajectories[i], nil
	})
	var pe *guard.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("worker panic surfaced as %v, want *guard.PanicError", err)
	}
	if v := s.Current().Version; v != 0 {
		t.Fatalf("version %d after failed batch, want 0", v)
	}
	ingestDataset(t, s, ds) // the batch must still be ingestable
}

// TestWatchdogConvertsStuckIngest pins the watchdog: an ingest whose
// pipeline stalls past the budget fails with guard.ErrStuck while the
// client's own context is still live, and counts as a breaker failure.
func TestWatchdogConvertsStuckIngest(t *testing.T) {
	g := testGraph(t, 15)
	s, err := New("stuck", g, Config{Guard: guard.Config{
		Watchdog: 30 * time.Millisecond,
		Breaker:  guard.BreakerConfig{TripAfter: 1, Cooldown: time.Hour},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ds := testDataset(t, g, 2, 16)
	ids := []traj.ID{ds.Trajectories[0].ID, ds.Trajectories[1].ID}
	_, err = s.Ingest(context.Background(), ids, func(i int) (traj.Trajectory, error) {
		time.Sleep(150 * time.Millisecond) // wedge past the watchdog
		return ds.Trajectories[i], nil
	})
	if !errors.Is(err, guard.ErrStuck) {
		t.Fatalf("stuck ingest returned %v, want guard.ErrStuck", err)
	}
	if !s.Quarantined() {
		t.Fatal("TripAfter=1 stuck ingest must quarantine the session")
	}
	if got := s.Guard().Snapshot().Stuck; got != 1 {
		t.Fatalf("guard counted %d stuck ingests, want 1", got)
	}
}

// TestQuarantineAndHealByteIdentical drives the full breaker
// lifecycle on a durable session with an injected clock: trip on
// consecutive injected failures, reject writes while quarantined, then
// heal through a half-open probe — after which the rebuilt state
// (checkpoint + WAL replay via ReloadCheckpoint) must be byte-identical
// to a control session that ingested the same committed batches and
// never saw a fault.
func TestQuarantineAndHealByteIdentical(t *testing.T) {
	g := testGraph(t, 21)
	clk := guard.NewManualClock(time.Unix(1_700_000_000, 0))
	inj := fault.New(fault.Config{Seed: 3, Points: map[fault.Point]fault.Spec{
		fault.Ingest: {ErrProb: 1},
	}})
	inj.SetEnabled(false)
	s, err := New("victim", g, Config{
		Fault:   inj,
		Persist: &persist.Options{Dir: t.TempDir(), CheckpointEvery: 1},
		Guard: guard.Config{
			Breaker: guard.BreakerConfig{TripAfter: 2, Cooldown: 10 * time.Second},
			Now:     clk.Now,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	batch1 := testDataset(t, g, 6, 22)
	batch2 := testDataset(t, g, 5, 23)
	for i := range batch2.Trajectories { // disjoint ids across batches
		batch2.Trajectories[i].ID += 1000
	}

	ingestDataset(t, s, batch1)

	inj.SetEnabled(true)
	for i := 0; i < 2; i++ {
		if err := ingestErr(s, batch2); !fault.IsInjected(err) {
			t.Fatalf("faulted ingest %d returned %v, want injected error", i, err)
		}
	}
	if !s.Quarantined() {
		t.Fatal("2 consecutive injected failures must quarantine (TripAfter=2)")
	}
	var qe *guard.QuarantinedError
	if err := ingestErr(s, batch2); !errors.As(err, &qe) {
		t.Fatalf("write to quarantined session returned %v, want *guard.QuarantinedError", err)
	}
	if qe.RetryAfter <= 0 {
		t.Fatalf("QuarantinedError.RetryAfter = %v, want > 0", qe.RetryAfter)
	}
	// Frozen clock: the cooldown cannot elapse on its own.
	if err := ingestErr(s, batch2); !errors.As(err, &qe) {
		t.Fatal("cooldown expired without the clock advancing")
	}

	inj.SetEnabled(false)
	clk.Advance(10 * time.Second)
	if err := ingestErr(s, batch2); err != nil { // the half-open probe
		t.Fatalf("probe ingest failed: %v", err)
	}
	if s.Quarantined() {
		t.Fatal("successful probe must close the breaker")
	}
	st := s.Guard().Snapshot()
	if st.Trips != 1 || st.Heals != 1 {
		t.Fatalf("trips/heals = %d/%d, want 1/1", st.Trips, st.Heals)
	}

	// Control: a never-faulted session fed exactly the committed batches.
	ctrl, err := New("control", g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	ingestDataset(t, ctrl, batch1)
	ingestDataset(t, ctrl, batch2)

	got, want := s.Current(), ctrl.Current()
	if got.Version != want.Version {
		t.Fatalf("healed version %d, control %d", got.Version, want.Version)
	}
	if !reflect.DeepEqual(got.Trajs, want.Trajs) {
		t.Fatal("healed trajectories differ from the never-faulted control")
	}
	if !reflect.DeepEqual(got.Fragments, want.Fragments) {
		t.Fatal("healed fragments differ from the never-faulted control")
	}
}

// TestRecoveredBatchesDuringHeal reads RecoveredBatches, as the stats
// handler does, while a probe ingest heals the session (meaningful
// under -race), and checks the heal's count.
func TestRecoveredBatchesDuringHeal(t *testing.T) {
	g := testGraph(t, 25)
	clk := guard.NewManualClock(time.Unix(1_700_000_000, 0))
	inj := fault.New(fault.Config{Seed: 3, Points: map[fault.Point]fault.Spec{
		fault.Ingest: {ErrProb: 1},
	}})
	inj.SetEnabled(false)
	s, err := New("victim", g, Config{
		Fault:   inj,
		Persist: &persist.Options{Dir: t.TempDir(), Fsync: persist.FsyncOff},
		Guard: guard.Config{
			Breaker: guard.BreakerConfig{TripAfter: 1, Cooldown: 10 * time.Second},
			Now:     clk.Now,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	batch1 := testDataset(t, g, 6, 26)
	batch2 := testDataset(t, g, 5, 27)
	for i := range batch2.Trajectories {
		batch2.Trajectories[i].ID += 1000
	}
	ingestDataset(t, s, batch1)
	inj.SetEnabled(true)
	if err := ingestErr(s, batch2); !fault.IsInjected(err) {
		t.Fatalf("faulted ingest returned %v, want injected error", err)
	}
	inj.SetEnabled(false)
	clk.Advance(10 * time.Second)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				_ = s.RecoveredBatches()
			}
		}
	}()
	err = ingestErr(s, batch2) // the probe heals the session
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatalf("probe ingest failed: %v", err)
	}
	if s.Guard().Snapshot().Heals != 1 {
		t.Fatal("the probe did not heal the session")
	}
	if got := s.RecoveredBatches(); got != 2 {
		t.Fatalf("RecoveredBatches after the heal = %d, want 2", got)
	}
}

// TestRegistryRemoveRacesIngestAndTrippedBreaker removes a session
// while ingests are still in flight and its breaker is tripped: Remove
// must complete, the survivors must be well-formed errors (closed or
// quarantined), no goroutines may leak, and the session's directory
// must recover cleanly into a fresh registry.
func TestRegistryRemoveRacesIngestAndTrippedBreaker(t *testing.T) {
	dir := t.TempDir()
	base := runtime.NumGoroutine()
	g := testGraph(t, 31)
	mk := func() *Registry {
		r, err := NewRegistry(Options{
			Graph:   g,
			Persist: &persist.Options{Dir: dir},
			Session: Config{Guard: guard.Config{
				Breaker: guard.BreakerConfig{TripAfter: 1, Cooldown: time.Hour},
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r := mk()
	inj := fault.New(fault.Config{Seed: 9, Points: map[fault.Point]fault.Spec{
		fault.Ingest: {ErrProb: 1},
	}})
	inj.SetEnabled(false)
	sess, err := r.Create("doomed", g, CreateOptions{Fault: inj})
	if err != nil {
		t.Fatal(err)
	}
	ds := testDataset(t, g, 6, 32)
	ingestDataset(t, sess, ds) // one committed batch to recover later

	// Trip the breaker with one injected failure.
	inj.SetEnabled(true)
	more := testDataset(t, g, 3, 33)
	for i := range more.Trajectories {
		more.Trajectories[i].ID += 5000
	}
	if err := ingestErr(sess, more); !fault.IsInjected(err) {
		t.Fatalf("want injected failure, got %v", err)
	}
	if !sess.Quarantined() {
		t.Fatal("breaker must be tripped before the race")
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			batch := testDataset(t, g, 2, int64(100+w))
			for i := range batch.Trajectories {
				batch.Trajectories[i].ID += traj.ID(10000 * (w + 2))
			}
			for i := 0; i < 4; i++ {
				err := ingestErr(sess, batch)
				if err == nil {
					continue
				}
				var qe *guard.QuarantinedError
				var de *DuplicateError
				if !errors.Is(err, ErrClosed) && !errors.As(err, &qe) && !errors.As(err, &de) && !fault.IsInjected(err) {
					t.Errorf("racing ingest returned unexpected error: %v", err)
					return
				}
			}
		}(w)
	}
	if err := r.Remove("doomed"); err != nil {
		t.Fatalf("Remove racing ingests: %v", err)
	}
	wg.Wait()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// No goroutine leaks once everything settles.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base+2 {
		t.Fatalf("goroutines leaked: %d at start, %d after settle", base, n)
	}

	// The removed session's directory must recover cleanly.
	r2 := mk()
	defer r2.Close()
	got, err := r2.Get("doomed")
	if err != nil {
		t.Fatalf("removed session's namespace did not recover: %v", err)
	}
	if got.RecoveredBatches() == 0 {
		t.Fatal("recovered session lost its acknowledged batch")
	}
}
