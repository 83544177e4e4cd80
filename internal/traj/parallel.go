package traj

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/conc"
	"repro/internal/roadnet"
	"repro/internal/shortest"
)

// PartitionPool is Phase 1's one parallel partitioner: the paper's
// data nodes (§II-C), in-process. Phase 1 touches every location
// sample, so it leads NEAT's running time (Fig 6(b)), and it is
// embarrassingly parallel across trajectories. The pool keeps idle
// partitioners, each with its gap-repair engine, across calls. It is
// safe for concurrent use; a worker holds its partitioner for a call.
type PartitionPool struct{ parts sync.Pool }

// NewPartitionPool returns an empty pool over g.
func NewPartitionPool(g *roadnet.Graph) *PartitionPool {
	pp := &PartitionPool{}
	pp.parts.New = func() any { return NewPartitioner(g, shortest.New(g, nil)) }
	return pp
}

// Partition partitions the n trajectories source yields by index and
// returns their fragments and the trajectories in input order: the
// fragments a serial Partitioner returns, for any worker count. It
// runs min(workers, n) workers (workers <= 0 selects GOMAXPROCS), one
// of them on the calling goroutine; they claim indices in input order
// and check ctx before each claim. The error is ctx's if it expired,
// otherwise that of the first trajectory in input order whose
// conversion or partitioning failed: every lower index was claimed
// before it and runs to completion. A worker's panic is raised again,
// with its value, on the calling goroutine once every worker stopped.
func (pp *PartitionPool) Partition(ctx context.Context, workers, n int, source func(int) (Trajectory, error)) ([]TFragment, []Trajectory, error) {
	if n == 0 {
		return nil, nil, ctx.Err()
	}
	perTraj := make([][]TFragment, n)
	trajs := make([]Trajectory, n)
	errs := make([]error, n)
	w := conc.WorkersFor(workers, n)
	panics := make([]any, w)
	var next atomic.Int64
	var stop atomic.Bool // set by the first failure or panic
	run := func(k int) {
		defer func() {
			if panics[k] = recover(); panics[k] != nil {
				stop.Store(true)
			}
		}()
		p := pp.parts.Get().(*Partitioner)
		for !stop.Load() && ctx.Err() == nil {
			i := int(next.Add(1) - 1)
			if i >= n {
				break
			}
			tr, err := source(i)
			if err == nil {
				perTraj[i], err = p.Partition(tr)
			}
			if err != nil {
				errs[i] = err
				stop.Store(true)
				break
			}
			trajs[i] = tr
		}
		pp.parts.Put(p) // not deferred: a partitioner a panic left mid-route is dropped
	}
	var wg sync.WaitGroup
	for k := 1; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(k)
		}()
	}
	run(0)
	wg.Wait()
	for _, r := range panics {
		if r != nil {
			panic(r)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	total := 0
	for i, err := range errs {
		if err != nil {
			return nil, nil, err
		}
		total += len(perTraj[i])
	}
	out := make([]TFragment, 0, total)
	for _, frags := range perTraj {
		out = append(out, frags...)
	}
	return out, trajs, nil
}
