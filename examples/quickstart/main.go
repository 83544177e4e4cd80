// Quickstart: the smallest end-to-end NEAT run. It hand-builds the
// star road network of the paper's Figure 1(b), feeds in five short
// trajectories, and walks through the concepts of §II-B: t-fragments,
// base clusters, density, netflow, and flow clusters — printing the
// same numbers the paper derives in its worked example.
package main

import (
	"fmt"
	"log"

	"repro/internal/geo"
	"repro/internal/neat"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Road network of Fig 1(b): four segments meeting at junction n2.
	var b roadnet.Builder
	n1 := b.AddJunction(geo.Pt(0, 0))
	n2 := b.AddJunction(geo.Pt(100, 0))
	n3 := b.AddJunction(geo.Pt(200, 0))
	n4 := b.AddJunction(geo.Pt(100, 100))
	n5 := b.AddJunction(geo.Pt(100, -100))
	s1, _ := b.AddSegment(n1, n2, roadnet.SegmentOpts{})
	s2, _ := b.AddSegment(n2, n3, roadnet.SegmentOpts{})
	s3, _ := b.AddSegment(n2, n4, roadnet.SegmentOpts{})
	s4, _ := b.AddSegment(n2, n5, roadnet.SegmentOpts{})
	g, err := b.Build()
	if err != nil {
		return err
	}
	fmt.Println("road network:", roadnet.ComputeStats(g))

	// Five trips over the network. Each is a time-ordered sequence of
	// road-network locations (sid, x, y, t); the pipeline splits them
	// at junctions into t-fragments.
	mk := func(id traj.ID, route ...roadnet.SegID) traj.Trajectory {
		tr := traj.Trajectory{ID: id}
		t := 0.0
		for _, s := range route {
			gs := g.SegmentGeometry(s)
			tr.Points = append(tr.Points,
				traj.Sample(s, gs.Midpoint(), t),
				traj.Sample(s, gs.PointAt(0.9), t+5))
			t += 10
		}
		return tr
	}
	ds := traj.Dataset{
		Name: "fig1",
		Trajectories: []traj.Trajectory{
			mk(1, s1, s2), // T1: along the main road
			mk(2, s1, s2), // T2: same
			mk(3, s1, s3), // T3: turns north
			mk(4, s2),     // T4: only the eastern segment
			mk(5, s1, s4), // T5: turns south
		},
	}

	pipeline := neat.NewPipeline(g)
	cfg := neat.Config{
		Flow:   neat.FlowConfig{Weights: neat.WeightsFlowOnly},
		Refine: neat.RefineConfig{Epsilon: 400, UseELB: true, Bounded: true},
	}
	res, err := pipeline.Run(ds, cfg, neat.LevelOpt)
	if err != nil {
		return err
	}

	fmt.Printf("\nPhase 1 — %d t-fragments grouped into %d base clusters:\n",
		res.NumFragments, len(res.BaseClusters))
	for _, bc := range res.BaseClusters {
		fmt.Printf("  segment %d: density %d, trajectory cardinality %d\n",
			bc.Seg, bc.Density(), bc.Cardinality())
	}
	fmt.Printf("  dense-core is segment %d\n", res.BaseClusters[0].Seg)

	fmt.Printf("\nPhase 2 — %d flow clusters:\n", len(res.Flows))
	for i, f := range res.Flows {
		fmt.Printf("  flow %d: route %v, length %.0f m, %d trajectories\n",
			i, f.Route, f.RouteLength(g), f.Cardinality())
	}

	fmt.Printf("\nPhase 3 — %d final trajectory clusters (eps=%.0f m):\n",
		len(res.Clusters), cfg.Refine.Epsilon)
	for i, c := range res.Clusters {
		fmt.Printf("  cluster %d: %d flows, %d trajectories\n",
			i, len(c.Flows), c.Cardinality())
	}
	return nil
}
