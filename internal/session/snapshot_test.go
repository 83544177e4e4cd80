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
