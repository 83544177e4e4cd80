package session

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/neat"
)

// TestSnapshotFlowsSharedComputation parks the leader's computation and
// checks that concurrent callers wait for it and share its result, that
// a caller whose deadline expires first gives up on its own, and that
// only one computation ran.
func TestSnapshotFlowsSharedComputation(t *testing.T) {
	sn := &Snapshot{}
	want := &neat.FlowSet{BaseClusters: 7}
	var calls atomic.Int32
	entered, release := make(chan struct{}), make(chan struct{})
	compute := func(context.Context) (*neat.FlowSet, error) {
		if calls.Add(1) == 1 {
			close(entered)
			<-release
		}
		return want, nil
	}
	bg := context.Background()
	leaderDone := make(chan *neat.FlowSet, 1)
	go func() {
		fs, err := sn.Flows(bg, compute)
		if err != nil {
			t.Error(err)
		}
		leaderDone <- fs
	}()
	<-entered

	short, cancel := context.WithTimeout(bg, 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := sn.Flows(short, compute); !errors.Is(err, context.DeadlineExceeded) {
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
			fs, err := sn.Flows(bg, compute)
			if err != nil {
				t.Error(err)
			}
			got[i] = fs
		}(i)
	}
	close(release)
	wg.Wait()
	if fs := <-leaderDone; fs != want {
		t.Fatal("leader returned a different flow set")
	}
	for i, fs := range got {
		if fs != want {
			t.Fatalf("waiter %d got a different flow set", i)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("%d computations, want 1", n)
	}
}

// TestSnapshotFlowsNeverStoresFailure checks that an error, a
// cancellation and a panic all leave the slot empty, and that the first
// success is kept.
func TestSnapshotFlowsNeverStoresFailure(t *testing.T) {
	sn := &Snapshot{}
	ctx := context.Background()
	var calls int
	fail := func(err error) func(context.Context) (*neat.FlowSet, error) {
		return func(context.Context) (*neat.FlowSet, error) { calls++; return nil, err }
	}
	if _, err := sn.Flows(ctx, fail(errors.New("boom"))); err == nil {
		t.Fatal("failed computation reported success")
	}
	if _, err := sn.Flows(ctx, fail(context.Canceled)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled computation: err %v", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate to the leader")
			}
		}()
		sn.Flows(ctx, func(context.Context) (*neat.FlowSet, error) { calls++; panic("boom") })
	}()
	want := &neat.FlowSet{}
	ok := func(context.Context) (*neat.FlowSet, error) { calls++; return want, nil }
	for i := 0; i < 2; i++ {
		fs, err := sn.Flows(ctx, ok)
		if err != nil || fs != want {
			t.Fatalf("call %d: %v %v", i, fs, err)
		}
	}
	if calls != 4 {
		t.Fatalf("%d computations, want 4 (three failures retried, one success kept)", calls)
	}
}

// TestSnapshotFlowsWaiterRetriesAfterLeaderFails parks a leader that
// will fail and checks that its waiter, whose own context is still
// live, computes afresh instead of inheriting the failure.
func TestSnapshotFlowsWaiterRetriesAfterLeaderFails(t *testing.T) {
	sn := &Snapshot{}
	ctx := context.Background()
	entered, release := make(chan struct{}), make(chan struct{})
	go sn.Flows(ctx, func(context.Context) (*neat.FlowSet, error) {
		close(entered)
		<-release
		return nil, context.DeadlineExceeded
	})
	<-entered
	want := &neat.FlowSet{}
	done := make(chan error, 1)
	go func() {
		fs, err := sn.Flows(ctx, func(context.Context) (*neat.FlowSet, error) { return want, nil })
		if err == nil && fs != want {
			err = errors.New("waiter got a different flow set")
		}
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter join the parked call
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
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
