package session

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/neat"
	"repro/internal/obs"
)

// foldCtx is a context that never reports Done and whose Err runs
// check, so a read carrying it takes the fold lock and the fold's
// context checks inside BuildFlowSet run check.
type foldCtx struct {
	context.Context
	check func() error
}

func (c foldCtx) Err() error { return c.check() }

// parkedFold returns a foldCtx whose first check closes entered and
// waits for release; every check then reports err.
func parkedFold(err error) (ctx foldCtx, entered, release chan struct{}) {
	entered, release = make(chan struct{}), make(chan struct{})
	var once sync.Once
	return foldCtx{context.Background(), func() error {
		once.Do(func() { close(entered); <-release })
		return err
	}}, entered, release
}

// foldSession is a session with an ingested dataset and a registry
// whose phase 1 histogram counts the successful folds.
func foldSession(t *testing.T, seed int64) (*Session, func() int64) {
	t.Helper()
	g := testGraph(t, seed)
	reg := obs.NewRegistry()
	s, err := New("folds", g, Config{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ingestDataset(t, s, testDataset(t, g, 20, seed))
	return s, reg.Histogram("neat_phase_seconds", nil, obs.L("phase", "1")).Count
}

// TestSnapshotFlowsSharedComputation parks a fold inside
// BuildFlowSet and checks that concurrent reads of the snapshot wait
// for it and share its flow set, that a read whose deadline expires
// first leaves with its own error promptly, and that one fold ran.
func TestSnapshotFlowsSharedComputation(t *testing.T) {
	s, folds := foldSession(t, 52)
	sn := s.Current()
	park, entered, release := parkedFold(nil)
	leaderDone := make(chan *neat.FlowSet, 1)
	go func() {
		fs, err := s.Flows(park, sn, flowsCfg)
		if err != nil {
			t.Error(err)
		}
		leaderDone <- fs
	}()
	<-entered

	bg := context.Background()
	short, cancel := context.WithTimeout(bg, 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := s.Flows(short, sn, flowsCfg); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiter past its deadline: err %v, want deadline exceeded", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("waiter held %v past its deadline", d)
	}

	var wg sync.WaitGroup
	got := make([]*neat.FlowSet, 4)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fs, err := s.Flows(bg, sn, flowsCfg)
			if err != nil {
				t.Error(err)
			}
			got[i] = fs
		}(i)
	}
	close(release)
	wg.Wait()
	want := <-leaderDone
	for i, fs := range got {
		if fs != want {
			t.Fatalf("waiter %d got a different flow set", i)
		}
	}
	if n := folds(); n != 1 {
		t.Fatalf("%d folds, want 1", n)
	}
	if got := renderFlowSet(want); got != freshFlows(t, s, sn) {
		t.Fatalf("shared flow set diverges from a fresh plan:\n%s", got)
	}
}

// TestSnapshotFlowsNeverStoresFailure checks that a fold ending in an
// error, a cancellation or a panic stores nothing and frees the fold
// lock, and that the next read folds again and is kept.
func TestSnapshotFlowsNeverStoresFailure(t *testing.T) {
	s, folds := foldSession(t, 53)
	sn := s.Current()
	empty := func(what string) {
		t.Helper()
		if sn.flows.Load() != nil {
			t.Fatalf("%s: a flow set was stored", what)
		}
		select {
		case s.fold <- struct{}{}:
			<-s.fold
		default:
			t.Fatalf("%s: the fold lock is still held", what)
		}
	}
	boom := errors.New("boom")
	if _, err := s.Flows(foldCtx{context.Background(), func() error { return boom }}, sn, flowsCfg); err != boom {
		t.Fatalf("failed fold: err %v", err)
	}
	empty("error")
	if _, err := s.Flows(foldCtx{context.Background(), func() error { return context.Canceled }}, sn, flowsCfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled fold: err %v", err)
	}
	empty("cancellation")
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the fold's panic did not reach its reader")
			}
		}()
		s.Flows(foldCtx{context.Background(), func() error { panic("boom") }}, sn, flowsCfg)
	}()
	empty("panic")
	if n := folds(); n != 0 {
		t.Fatalf("%d folds recorded by failed reads", n)
	}

	ctx := context.Background()
	first, err := s.Flows(ctx, sn, flowsCfg)
	if err != nil {
		t.Fatal(err)
	}
	again, err := s.Flows(ctx, sn, flowsCfg)
	if err != nil || again != first {
		t.Fatalf("second read: %p %v, want the kept %p", again, err, first)
	}
	if n := folds(); n != 1 {
		t.Fatalf("%d folds, want 1 (the success, kept)", n)
	}
}

// TestSnapshotFlowsWaiterRetriesAfterLeaderFails parks a fold that
// will fail and checks that a read waiting on the fold lock, whose own
// context is still live, folds afresh instead of inheriting the
// failure.
func TestSnapshotFlowsWaiterRetriesAfterLeaderFails(t *testing.T) {
	s, folds := foldSession(t, 54)
	sn := s.Current()
	park, entered, release := parkedFold(context.DeadlineExceeded)
	parked := make(chan error, 1)
	go func() {
		_, err := s.Flows(park, sn, flowsCfg)
		parked <- err
	}()
	<-entered
	done := make(chan error, 1)
	go func() {
		fs, err := s.Flows(context.Background(), sn, flowsCfg)
		if err == nil && renderFlowSet(fs) != freshFlows(t, s, sn) {
			err = errors.New("waiter's flow set diverges from a fresh plan")
		}
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter queue on the fold lock
	close(release)
	if err := <-parked; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("parked fold: err %v, want deadline exceeded", err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := folds(); n != 1 {
		t.Fatalf("%d folds, want 1 (the waiter's)", n)
	}
}

// TestFlowObjectsEncodeOncePerSnapshot runs overlapping FlowObjects
// calls on one snapshot at once (run it under -race): each flow is
// encoded exactly once, every call gets the one kept object of each of
// its flows, and an encode error is returned and keeps nothing for
// that flow.
func TestFlowObjectsEncodeOncePerSnapshot(t *testing.T) {
	sn := &Snapshot{}
	flows := make([]*neat.FlowCluster, 40)
	for i := range flows {
		flows[i] = &neat.FlowCluster{}
	}
	var mu sync.Mutex
	encoded := map[*neat.FlowCluster]int{}
	encode := func(f *neat.FlowCluster) ([]byte, error) {
		mu.Lock()
		defer mu.Unlock()
		encoded[f]++
		return []byte{byte(len(encoded))}, nil
	}
	const callers = 8
	got := make([][][]byte, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Caller c reads a window of the flows that overlaps its
			// neighbours'.
			part := flows[c*4 : c*4+10]
			got[c] = make([][]byte, len(part))
			if err := sn.FlowObjects(part, got[c], encode); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	kept := map[*neat.FlowCluster]*byte{}
	for c := range got {
		for i, b := range got[c] {
			f := flows[c*4+i]
			if len(b) != 1 {
				t.Fatalf("caller %d flow %d: object %v", c, c*4+i, b)
			}
			if p, ok := kept[f]; ok && p != &b[0] {
				t.Fatalf("flow %d: two callers got different objects", c*4+i)
			}
			kept[f] = &b[0]
		}
	}
	for f, n := range encoded {
		if n != 1 {
			t.Fatalf("flow %p encoded %d times", f, n)
		}
	}
	if len(encoded) != len(kept) {
		t.Fatalf("%d flows encoded, %d read", len(encoded), len(kept))
	}

	fresh := []*neat.FlowCluster{flows[0], {}}
	boom := errors.New("boom")
	if err := sn.FlowObjects(fresh, make([][]byte, 2), func(*neat.FlowCluster) ([]byte, error) { return nil, boom }); err != boom {
		t.Fatalf("encode error: got %v", err)
	}
	dst := make([][]byte, 2)
	if err := sn.FlowObjects(fresh, dst, func(*neat.FlowCluster) ([]byte, error) { return []byte("x"), nil }); err != nil || string(dst[1]) != "x" || &dst[0][0] != kept[flows[0]] {
		t.Fatalf("after a failed encode: %q, %v", dst, err)
	}
}
