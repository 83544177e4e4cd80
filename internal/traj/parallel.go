package traj

import (
	"sync"

	"repro/internal/conc"
	"repro/internal/roadnet"
	"repro/internal/shortest"
)

// PartitionDatasetParallel partitions a dataset across a pool of
// workers, each with its own gap-repair engine, and returns the
// fragments in the exact order a serial PartitionDataset would. On
// invalid input it returns exactly the serial error: the failure of
// the first bad trajectory in dataset order, whatever the scheduling.
//
// Phase 1 dominates NEAT's running time (the paper's Fig 6(b)) because
// it touches every location sample, and it is embarrassingly parallel
// across trajectories — this is the same sharding the paper's data
// nodes perform (§II-C), in-process.
func PartitionDatasetParallel(g *roadnet.Graph, d Dataset, workers int) ([]TFragment, error) {
	n := len(d.Trajectories)
	if n == 0 {
		return nil, nil
	}
	workers = conc.WorkersFor(workers, n)
	perTraj := make([][]TFragment, n)
	// One error slot per trajectory. Indices leave the channel in
	// dataset order and a worker stops only after recording a failure,
	// so the first bad trajectory is always reached and the scan below
	// returns its error.
	errs := make([]error, n)
	var wg sync.WaitGroup
	next := make(chan int, n)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := NewPartitioner(g, shortest.New(g, nil))
			for i := range next {
				frags, err := p.Partition(d.Trajectories[i])
				if err != nil {
					errs[i] = err
					return
				}
				perTraj[i] = frags
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var out []TFragment
	for _, frags := range perTraj {
		out = append(out, frags...)
	}
	return out, nil
}
