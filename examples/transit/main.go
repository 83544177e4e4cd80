// Transit planning: the paper's first motivating scenario — "knowing
// which routes in a road network with highly dense and continuous
// traffic helps optimize rail/bus line and terminal arrangement."
//
// The example simulates commuter traffic on a scaled North-West-Atlanta
// network, clusters it with NEAT, and turns the strongest flow clusters
// into bus-line proposals: route, length, expected ridership (trajectory
// cardinality), and terminal junctions. It also derives stop positions
// every ~400 m along each proposed route.
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/mapgen"
	"repro/internal/mobisim"
	"repro/internal/neat"
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
	sim := mobisim.New(g)
	cfg := mobisim.DefaultConfig("commute", 300, 42)
	cfg.NumHotspots = 3 // three residential areas
	cfg.NumDestinations = 2
	ds, layout, err := sim.Simulate(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("simulated %d commuter trips (%d location samples)\n",
		len(ds.Trajectories), ds.TotalPoints())

	res, err := neat.NewPipeline(g).Run(ds, neat.Config{
		Flow:   neat.FlowConfig{Weights: neat.WeightsTrafficMonitoring, MinCard: 10},
		Refine: neat.RefineConfig{Epsilon: 1200, UseELB: true, Bounded: true},
	}, neat.LevelFlow)
	if err != nil {
		return err
	}
	fmt.Printf("NEAT found %d candidate corridors (minCard=10) in %s\n\n",
		len(res.Flows), res.Timing.Total().Round(1e6))

	// Rank corridors by passenger-kilometers: riders x route length.
	type proposal struct {
		flow   *neat.FlowCluster
		riders int
		length float64
	}
	var proposals []proposal
	for _, f := range res.Flows {
		proposals = append(proposals, proposal{
			flow:   f,
			riders: f.Cardinality(),
			length: f.RouteLength(g),
		})
	}
	sort.Slice(proposals, func(i, j int) bool {
		return float64(proposals[i].riders)*proposals[i].length >
			float64(proposals[j].riders)*proposals[j].length
	})

	const stopSpacing = 400.0
	limit := 5
	if len(proposals) < limit {
		limit = len(proposals)
	}
	fmt.Printf("top %d bus line proposals (of %d corridors):\n", limit, len(proposals))
	for i, p := range proposals[:limit] {
		start, end, err := p.flow.Route.Endpoints(g)
		if err != nil {
			return err
		}
		geom, err := p.flow.Route.Geometry(g)
		if err != nil {
			return err
		}
		stops := int(p.length/stopSpacing) + 2 // terminals included
		fmt.Printf("  line %d: %d segments, %.1f km, terminals j%d <-> j%d\n",
			i+1, len(p.flow.Route), p.length/1000, start, end)
		fmt.Printf("          expected riders: %d of %d trips (%.0f%%), ~%d stops\n",
			p.riders, len(ds.Trajectories),
			100*float64(p.riders)/float64(len(ds.Trajectories)), stops)
		// First few stop positions along the corridor.
		fmt.Printf("          stops at: ")
		for s := 0; s < stops && s < 4; s++ {
			pt := geom.PointAtArc(float64(s) * stopSpacing)
			fmt.Printf("(%.0f,%.0f) ", pt.X, pt.Y)
		}
		fmt.Println("...")
	}
	fmt.Printf("\nhotspots: %v  destinations: %v\n", layout.Hotspots, layout.Destinations)
	return nil
}
