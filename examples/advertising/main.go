// Location-based advertising: the paper's second motivating scenario —
// "it would be beneficial for local stores to place advertisements ...
// to mobile devices taking path in major traffic flows passing by
// their stores."
//
// The example places a handful of stores on a scaled West-San-Jose
// network, clusters the simulated traffic with NEAT, and for each
// store reports which major flows pass within walking distance, how
// many distinct mobile objects those flows carry, and at which hours
// the flow's objects pass closest — the inputs an ad-targeting engine
// needs.
package main

import (
	"fmt"
	"log"
	"math"

	"repro/internal/geo"
	"repro/internal/hotspot"
	"repro/internal/mapgen"
	"repro/internal/mobisim"
	"repro/internal/neat"
	"repro/internal/spatial"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	g, err := mapgen.Generate(mapgen.WestSanJose().Scaled(0.05))
	if err != nil {
		return err
	}
	ds, _, err := mobisim.New(g).Simulate(mobisim.DefaultConfig("shoppers", 250, 7))
	if err != nil {
		return err
	}
	res, err := neat.NewPipeline(g).Run(ds, neat.Config{
		Flow: neat.FlowConfig{Weights: neat.WeightsFlowOnly, MinCard: 8},
	}, neat.LevelFlow)
	if err != nil {
		return err
	}
	fmt.Printf("%d trips clustered into %d major flows in %s\n\n",
		len(ds.Trajectories), len(res.Flows), res.Timing.Total().Round(1e6))

	// Stores: pick junction positions spread across the map and nudge
	// them off-network, as storefronts are.
	grid, err := spatial.NewGrid(g, 150)
	if err != nil {
		return err
	}
	bounds := g.Bounds()
	stores := []struct {
		name string
		pos  geo.Point
	}{
		{"Cafe Aroma", bounds.Center().Add(geo.Pt(40, 25))},
		{"BookNook", bounds.Min.Add(geo.Pt(bounds.Width()*0.3, bounds.Height()*0.7))},
		{"GadgetHub", bounds.Min.Add(geo.Pt(bounds.Width()*0.75, bounds.Height()*0.25))},
	}
	const walkRadius = 250.0 // meters a pedestrian detours for an offer

	for _, store := range stores {
		// Snap the storefront to its street.
		loc, snapDist, ok := grid.Nearest(store.pos)
		if !ok {
			return fmt.Errorf("store %s is off the map", store.name)
		}
		fmt.Printf("%s (storefront %.0f m from segment %d):\n", store.name, snapDist, loc.Seg)

		matched := 0
		for i, f := range res.Flows {
			// A flow passes the store when any junction of its route is
			// within the walking radius of the storefront.
			geom, err := f.Route.Geometry(g)
			if err != nil {
				return err
			}
			closest := math.Inf(1)
			for _, p := range geom {
				if d := p.Dist(store.pos); d < closest {
					closest = d
				}
			}
			if closest > walkRadius {
				continue
			}
			matched++
			fmt.Printf("  flow %d passes at %.0f m: %d potential customers over %.1f km of route\n",
				i, closest, f.Cardinality(), f.RouteLength(g)/1000)
		}
		if matched == 0 {
			fmt.Printf("  no major flow within %.0f m — poor ad placement\n", walkRadius)
		}
		fmt.Println()
	}

	// Where should a NEW store advertise from? Detect the dataset's
	// hotspots (dense trip-endpoint areas) and rank them.
	spots, err := hotspot.Detect(ds, hotspot.Config{
		CellSize: 250,
		TopK:     3,
		Source:   hotspot.TripEndpoints,
	})
	if err != nil {
		return err
	}
	fmt.Println("best zones for a new campaign (trip-endpoint hotspots):")
	for i, h := range spots {
		fmt.Printf("  zone %d at (%.0f, %.0f): %.0f%% of trip endpoints\n",
			i+1, h.Center.X, h.Center.Y, 100*h.Share)
	}
	return nil
}
