// Incremental clustering: §III-C motivates the density-based
// refinement with online use — "the first two phases of NEAT can be
// performed on each newly arrived set of trajectories. The new flow
// clusters are then merged with the available flow clusters to produce
// compact clustering results."
//
// The example simulates a trajectory stream arriving in batches and
// feeds it to stream.Clusterer: per batch, Phases 1-2 run only on the
// new data, flows older than the sliding window age out, and the cheap
// Phase 3 merge serves the current clustering — the expensive phases
// never reprocess old data.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/mapgen"
	"repro/internal/mobisim"
	"repro/internal/neat"
	"repro/internal/stream"
	"repro/internal/traj"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	g, err := mapgen.Generate(mapgen.NorthWestAtlanta().Scaled(0.05))
	if err != nil {
		return err
	}
	ds, _, err := mobisim.New(g).Simulate(mobisim.DefaultConfig("stream", 240, 99))
	if err != nil {
		return err
	}
	clusterer, err := stream.New(g, stream.Config{
		Neat: neat.Config{
			Flow:   neat.FlowConfig{Weights: neat.WeightsFlowOnly, MinCard: 4},
			Refine: neat.RefineConfig{Epsilon: 1500, UseELB: true, Bounded: true},
		},
		Window: 4, // keep the last 4 batches of traffic
	})
	if err != nil {
		return err
	}

	const batches = 8
	per := len(ds.Trajectories) / batches
	fmt.Printf("streaming %d trajectories in %d batches of ~%d (window: 4 batches)\n\n",
		len(ds.Trajectories), batches, per)
	for b := 0; b < batches; b++ {
		lo, hi := b*per, (b+1)*per
		if b == batches-1 {
			hi = len(ds.Trajectories)
		}
		batch := traj.Dataset{
			Name:         fmt.Sprintf("batch-%d", b),
			Trajectories: ds.Trajectories[lo:hi],
		}
		start := time.Now()
		snap, err := clusterer.Ingest(batch)
		if err != nil {
			return err
		}
		fmt.Printf("batch %d: +%d flows, -%d evicted | standing %d flows in %d clusters "+
			"(%s, %d SP queries, %d pairs ELB-pruned)\n",
			snap.Batch, snap.NewFlows, snap.EvictedFlows, snap.StandingFlows,
			len(snap.Clusters), time.Since(start).Round(time.Millisecond),
			snap.RefineStats.SPQueries, snap.RefineStats.ELBPruned)
	}

	// Compare against a one-shot run over everything (unbounded memory).
	oneShot, err := neat.NewPipeline(g).Run(ds, neat.Config{
		Flow:   neat.FlowConfig{Weights: neat.WeightsFlowOnly, MinCard: 4},
		Refine: neat.RefineConfig{Epsilon: 1500, UseELB: true, Bounded: true},
	}, neat.LevelOpt)
	if err != nil {
		return err
	}
	fmt.Printf("\none-shot over all %d trips: %d flows in %d clusters\n",
		len(ds.Trajectories), len(oneShot.Flows), len(oneShot.Clusters))
	fmt.Println("(the windowed stream sees only recent traffic, and netflows across batch boundaries are invisible to per-batch Phase 2 — the trade for bounded memory and bounded per-batch work)")
	return nil
}
