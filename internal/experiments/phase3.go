package experiments

import (
	"fmt"
	"time"

	"repro/internal/neat"
)

// Phase3Workers measures the Phase 3 ε-graph builders head to head on
// the SJ series (whose flow counts drive refinement cost, Table III):
// the serial pairwise scan with ELB + bounded expansion against the
// batched one-to-many builder (RefineConfig.Workers != 0, Dijkstra
// kernel). The batched builder collapses the up-to 4·F·(F−1)/2
// point-to-point queries into at most 2F bounded expansions, so the
// speedup holds even on a single core; extra workers shard the
// expansions on top. Both builders produce identical clusters: every
// row asserts the same clusters in the same order holding the same
// flows, and the experiment fails on any difference.
func Phase3Workers(e *Env) (*Table, error) {
	t := &Table{
		ID:     "phase3-workers",
		Title:  "Phase 3 refinement: serial pairwise scan vs batched one-to-many builder (SJ datasets)",
		Header: []string{"Dataset", "Flows", "SerialMs", "BatchedMs", "Speedup", "Expansions", "GridPruned", "Clusters"},
		Notes: []string{
			"serial = ELB + bounded expansion (the paper's Fig 7 best case); batched = Workers:-1 one-to-many Dijkstra",
			"Expansions counts bounded one-to-many Dijkstra runs (<= 2F); GridPruned counts pairs rejected by the Euclidean point grid",
			"clustering output is byte-identical across modes (asserted)",
		},
	}
	g, err := e.Graph("SJ")
	if err != nil {
		return nil, err
	}
	p := neat.NewPipeline(g)
	serialCfg := neat.RefineConfig{Epsilon: e.Epsilon(6500), UseELB: true, Bounded: true}
	batchedCfg := neat.RefineConfig{Epsilon: e.Epsilon(6500), UseELB: true, Workers: -1}
	for _, paperObjects := range PaperObjectCounts {
		ds, err := e.Dataset("SJ", paperObjects)
		if err != nil {
			return nil, err
		}
		flowRes, err := p.Run(ds, e.NEATConfig(), neat.LevelFlow)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		serial, _, err := neat.RefineFlows(g, flowRes.Flows, serialCfg)
		if err != nil {
			return nil, err
		}
		serialMs := float64(time.Since(start).Microseconds()) / 1000
		start = time.Now()
		batched, stats, err := neat.RefineFlows(g, flowRes.Flows, batchedCfg)
		if err != nil {
			return nil, err
		}
		batchedMs := float64(time.Since(start).Microseconds()) / 1000
		if err := sameClustering(serial, batched); err != nil {
			return nil, fmt.Errorf("experiments: phase3-workers %s: %w", ds.Name, err)
		}
		speedup := 0.0
		if batchedMs > 0 {
			speedup = serialMs / batchedMs
		}
		t.AddRow(ds.Name, len(flowRes.Flows), serialMs, batchedMs, speedup,
			stats.Expansions, stats.PrunedPairs, len(batched))
	}
	return t, nil
}

// sameClustering reports the first difference between the serial and
// batched clusterings of one flow set: the cluster count, a cluster's
// size, or the flow at one position. Flows are compared by pointer, so
// the clusters and the flows within each must come in the same order.
func sameClustering(serial, batched []*neat.TrajectoryCluster) error {
	if len(batched) != len(serial) {
		return fmt.Errorf("batched produced %d clusters, serial %d", len(batched), len(serial))
	}
	for ci, c := range serial {
		if len(batched[ci].Flows) != len(c.Flows) {
			return fmt.Errorf("cluster %d holds %d flows batched, %d serial", ci, len(batched[ci].Flows), len(c.Flows))
		}
		for fi, f := range c.Flows {
			if batched[ci].Flows[fi] != f {
				return fmt.Errorf("cluster %d differs from serial at flow %d", ci, fi)
			}
		}
	}
	return nil
}
