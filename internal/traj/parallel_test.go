package traj

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/shortest"
)

// parallelDataset builds a dataset with gap-repair cases over the
// chain graph.
func parallelDataset(t *testing.T, g *roadnet.Graph, segs []roadnet.SegID) Dataset {
	t.Helper()
	var ds Dataset
	for i := 0; i < 24; i++ {
		tr := Trajectory{ID: ID(i)}
		switch i % 3 {
		case 0: // single segment
			tr.Points = []Location{
				Sample(segs[0], geo.Pt(10, 0), 0),
				Sample(segs[0], geo.Pt(90, 0), 9),
			}
		case 1: // adjacent hop
			tr.Points = []Location{
				Sample(segs[0], geo.Pt(40, 0), 0),
				Sample(segs[1], geo.Pt(150, 0), 10),
			}
		default: // gap repair across the chain
			tr.Points = []Location{
				Sample(segs[0], geo.Pt(50, 0), 0),
				Sample(segs[2], geo.Pt(250, 0), 20),
			}
		}
		ds.Trajectories = append(ds.Trajectories, tr)
	}
	return ds
}

// partitionAll runs pool over ds with the given worker count.
func partitionAll(pool *PartitionPool, ds Dataset, workers int) ([]TFragment, []Trajectory, error) {
	return pool.Partition(context.Background(), workers, len(ds.Trajectories), func(i int) (Trajectory, error) {
		return ds.Trajectories[i], nil
	})
}

// waitForGoroutines polls until the goroutine count is back to base,
// failing the test if it does not settle: a worker was left running.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d now vs %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestParallelMatchesSerial pins the pool to a serial Partitioner, on
// one pool reused across every worker count.
func TestParallelMatchesSerial(t *testing.T) {
	g, _, segs := chain(t)
	ds := parallelDataset(t, g, segs)
	serial, err := NewPartitioner(g, shortest.New(g, nil)).PartitionDataset(ds)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPartitionPool(g)
	for _, workers := range []int{1, 2, 4, 13, 100} {
		got, trajs, err := partitionAll(pool, ds, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(serial) {
			t.Fatalf("workers=%d: %d fragments, serial %d", workers, len(got), len(serial))
		}
		for i := range got {
			a, b := got[i], serial[i]
			if a.Traj != b.Traj || a.Seg != b.Seg || a.Index != b.Index || len(a.Points) != len(b.Points) {
				t.Fatalf("workers=%d: fragment %d differs: %v vs %v", workers, i, a, b)
			}
			for j := range a.Points {
				if a.Points[j] != b.Points[j] {
					t.Fatalf("workers=%d: fragment %d point %d differs", workers, i, j)
				}
			}
		}
		if len(trajs) != len(ds.Trajectories) {
			t.Fatalf("workers=%d: %d trajectories, want %d", workers, len(trajs), len(ds.Trajectories))
		}
		for i, tr := range trajs {
			if tr.ID != ds.Trajectories[i].ID {
				t.Fatalf("workers=%d: trajectory %d is %d, want %d", workers, i, tr.ID, ds.Trajectories[i].ID)
			}
		}
	}
}

// TestParallelOneWorkerInline pins that one worker runs on the
// calling goroutine: the call starts no goroutine.
func TestParallelOneWorkerInline(t *testing.T) {
	g, _, segs := chain(t)
	ds := parallelDataset(t, g, segs)
	before := runtime.NumGoroutine()
	_, _, err := NewPartitionPool(g).Partition(context.Background(), 1, len(ds.Trajectories), func(i int) (Trajectory, error) {
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("trajectory %d: %d goroutines, %d before the call", i, n, before)
		}
		return ds.Trajectories[i], nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestParallelEmpty(t *testing.T) {
	g, _, _ := chain(t)
	got, trajs, err := partitionAll(NewPartitionPool(g), Dataset{}, 4)
	if err != nil || got != nil || trajs != nil {
		t.Errorf("empty dataset: %v, %v, %v", got, trajs, err)
	}
}

func TestParallelPropagatesErrors(t *testing.T) {
	g, _, segs := chain(t)
	ds := Dataset{Trajectories: []Trajectory{
		{ID: 1, Points: []Location{
			Sample(segs[0], geo.Pt(10, 0), 10),
			Sample(segs[0], geo.Pt(20, 0), 5), // unordered
		}},
	}}
	if _, _, err := partitionAll(NewPartitionPool(g), ds, 4); err == nil {
		t.Error("invalid trajectory accepted")
	}
}

// TestParallelErrorMatchesSerial pins deterministic error selection:
// with two invalid trajectories, the pool must report exactly the
// error serial PartitionDataset reports — the first bad trajectory in
// dataset order, with the same text — on every run. A failed
// conversion counts like a failed partition: the first failure in
// input order wins, whichever kind it is.
func TestParallelErrorMatchesSerial(t *testing.T) {
	g, _, segs := chain(t)
	ds := parallelDataset(t, g, segs)
	for _, i := range []int{3, 20} {
		ds.Trajectories[i].Points = []Location{
			Sample(segs[0], geo.Pt(10, 0), 10),
			Sample(segs[0], geo.Pt(20, 0), 5), // unordered
		}
	}
	_, serr := NewPartitioner(g, shortest.New(g, nil)).PartitionDataset(ds)
	if serr == nil {
		t.Fatal("serial partition accepted invalid trajectories")
	}
	pool := NewPartitionPool(g)
	errConvert := errors.New("convert failed")
	for _, workers := range []int{2, 4, 8} {
		for run := 0; run < 200; run++ {
			_, _, err := partitionAll(pool, ds, workers)
			if err == nil || err.Error() != serr.Error() {
				t.Fatalf("workers=%d run %d: error %v, want serial %v", workers, run, err, serr)
			}
		}
		// A conversion failure at 2 precedes the partition failure at 3;
		// one at 5 follows it.
		for _, bad := range []int{2, 5} {
			_, _, err := pool.Partition(context.Background(), workers, len(ds.Trajectories), func(i int) (Trajectory, error) {
				if i == bad {
					return Trajectory{}, errConvert
				}
				return ds.Trajectories[i], nil
			})
			want := serr
			if bad < 3 {
				want = errConvert
			}
			if err == nil || err.Error() != want.Error() {
				t.Fatalf("workers=%d convert failure at %d: error %v, want %v", workers, bad, err, want)
			}
		}
	}
}

func TestParallelDefaultWorkers(t *testing.T) {
	g, _, segs := chain(t)
	ds := parallelDataset(t, g, segs)
	pool := NewPartitionPool(g)
	if _, _, err := partitionAll(pool, ds, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := partitionAll(pool, ds, -3); err != nil {
		t.Fatal(err)
	}
}

// TestParallelStopsOnContext cancels the context from inside the k-th
// call of the source: every worker checks the context before it claims
// another trajectory, so the source runs at most k + workers times,
// and the context's error comes back.
func TestParallelStopsOnContext(t *testing.T) {
	g, _, segs := chain(t)
	ds := parallelDataset(t, g, segs)
	pool := NewPartitionPool(g)
	const k = 5
	for _, workers := range []int{1, 2, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int64
		frags, trajs, err := pool.Partition(ctx, workers, len(ds.Trajectories), func(i int) (Trajectory, error) {
			if calls.Add(1) == k {
				cancel()
			}
			return ds.Trajectories[i], nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) || frags != nil || trajs != nil {
			t.Fatalf("workers=%d: got %d fragments, %d trajectories, err %v; want only context.Canceled", workers, len(frags), len(trajs), err)
		}
		if n := calls.Load(); n > k+int64(workers) {
			t.Fatalf("workers=%d: source called %d times after a cancel at call %d", workers, n, k)
		}
	}
}

// TestParallelPanicReraised panics in the source at one index: the
// panic comes back on the calling goroutine with its value, after
// every worker has stopped, and the pool still partitions afterwards.
func TestParallelPanicReraised(t *testing.T) {
	g, _, segs := chain(t)
	ds := parallelDataset(t, g, segs)
	pool := NewPartitionPool(g)
	for _, workers := range []int{1, 3, 8} {
		for _, at := range []int{0, 7, len(ds.Trajectories) - 1} {
			before := runtime.NumGoroutine()
			got := func() (r any) {
				defer func() { r = recover() }()
				pool.Partition(context.Background(), workers, len(ds.Trajectories), func(i int) (Trajectory, error) {
					if i == at {
						panic("hostile source")
					}
					return ds.Trajectories[i], nil
				})
				return nil
			}()
			if got != "hostile source" {
				t.Fatalf("workers=%d panic at %d: recovered %v, want the source's value", workers, at, got)
			}
			waitForGoroutines(t, before)
		}
		if _, _, err := partitionAll(pool, ds, workers); err != nil {
			t.Fatalf("workers=%d: pool after a panic: %v", workers, err)
		}
	}
}
