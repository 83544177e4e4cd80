package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"repro/internal/distcache"
	"repro/internal/mapgen"
	"repro/internal/mobisim"
	"repro/internal/neat"
	"repro/internal/roadnet"
	"repro/internal/traclus"
	"repro/internal/traj"
	"repro/internal/viz"
)

func loadMap(path string) (*roadnet.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("open map: %w", err)
	}
	defer f.Close()
	g, err := roadnet.Read(f)
	if err != nil {
		return nil, fmt.Errorf("parse map %s: %w", path, err)
	}
	return g, nil
}

func loadTraces(path string) (traj.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return traj.Dataset{}, fmt.Errorf("open traces: %w", err)
	}
	defer f.Close()
	ds, err := traj.Read(f, path)
	if err != nil {
		return traj.Dataset{}, fmt.Errorf("parse traces %s: %w", path, err)
	}
	return ds, nil
}

func cmdGenMap(args []string) error {
	fs := newFlagSet("genmap")
	region := fs.String("region", "ATL", "preset region: ATL, SJ, or MIA")
	scale := fs.Float64("scale", 1.0, "map scale factor in (0, 1]")
	seed := fs.Int64("seed", 0, "override the preset seed (0 keeps it)")
	out := fs.String("out", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, ok := mapgen.Presets()[strings.ToUpper(*region)]
	if !ok {
		return fmt.Errorf("unknown region %q (want ATL, SJ, or MIA)", *region)
	}
	if *scale < 1 {
		cfg = cfg.Scaled(*scale)
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	g, err := mapgen.Generate(cfg)
	if err != nil {
		return err
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fmt.Errorf("create %s: %w", *out, err)
		}
		defer f.Close()
		w = f
	}
	if err := roadnet.Write(w, g); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "generated %s: %s\n", cfg.Name, roadnet.ComputeStats(g))
	return nil
}

func cmdGenTraces(args []string) error {
	fs := newFlagSet("gentraces")
	mapPath := fs.String("map", "", "road network file (required)")
	objects := fs.Int("objects", 500, "number of mobile objects")
	hotspots := fs.Int("hotspots", 2, "number of spawn hotspots")
	dests := fs.Int("destinations", 3, "number of destinations")
	period := fs.Float64("period", 5, "sampling period, seconds")
	seed := fs.Int64("seed", 1, "simulation seed")
	model := fs.String("model", "hotspot", "trip model: hotspot, uniform, or commute")
	noise := fs.Float64("noise", 0, "emit RAW traces (trid,x,y,t) with this GPS noise stddev instead of matched trajectories")
	out := fs.String("out", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *mapPath == "" {
		return fmt.Errorf("gentraces: -map is required")
	}
	g, err := loadMap(*mapPath)
	if err != nil {
		return err
	}
	cfg := mobisim.DefaultConfig("cli", *objects, *seed)
	cfg.NumHotspots = *hotspots
	cfg.NumDestinations = *dests
	cfg.SamplePeriod = *period
	var tripModel mobisim.TripModel
	switch strings.ToLower(*model) {
	case "hotspot":
		tripModel = mobisim.TripHotspot
	case "uniform":
		tripModel = mobisim.TripUniform
	case "commute":
		tripModel = mobisim.TripCommute
	default:
		return fmt.Errorf("gentraces: unknown trip model %q", *model)
	}
	ds, layout, err := mobisim.New(g).SimulateModel(cfg, tripModel)
	if err != nil {
		return err
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fmt.Errorf("create %s: %w", *out, err)
		}
		defer f.Close()
		w = f
	}
	if *noise > 0 {
		raws := mobisim.AddNoise(ds, *noise, *seed+100)
		if err := traj.WriteRaw(w, raws); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "simulated %d RAW traces (%d points, noise stddev %.1f m)\n",
			len(raws), ds.TotalPoints(), *noise)
		return nil
	}
	if err := traj.Write(w, ds); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "simulated %d trajectories (%d points, model %s, %d hotspots, %d destinations)\n",
		len(ds.Trajectories), ds.TotalPoints(), tripModel, len(layout.Hotspots), len(layout.Destinations))
	return nil
}

func parseLevel(s string) (neat.Level, error) {
	switch strings.ToLower(s) {
	case "base":
		return neat.LevelBase, nil
	case "flow":
		return neat.LevelFlow, nil
	case "opt":
		return neat.LevelOpt, nil
	default:
		return 0, fmt.Errorf("unknown level %q (want base, flow, or opt)", s)
	}
}

func cmdCluster(args []string) error {
	fs := newFlagSet("cluster")
	mapPath := fs.String("map", "", "road network file (required)")
	tracesPath := fs.String("traces", "", "trajectory file (required)")
	level := fs.String("level", "opt", "clustering level: base, flow, or opt")
	eps := fs.Float64("eps", 6500, "Phase 3 network distance threshold, meters")
	minCard := fs.Int("mincard", 5, "minimum flow trajectory cardinality")
	weights := fs.String("weights", "flow", "merge weights: flow, density, speed, balanced, monitoring")
	beta := fs.Float64("beta", 0, "domination threshold (0 = +Inf)")
	workers := fs.Int("workers", 0, "parallel workers for Phases 1 and 3 (0 = serial, -1 = all CPUs)")
	cacheEntries := fs.Int("cache-entries", -1, "distance cache entry budget for Phase 3 (0 = default budget, <0 = no cache; output is identical)")
	trace := fs.Bool("trace", false, "print the per-phase span breakdown after the run")
	svg := fs.String("svg", "", "write clustering visualization to this SVG file")
	jsonOut := fs.String("json", "", "write machine-readable results to this JSON file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *mapPath == "" || *tracesPath == "" {
		return fmt.Errorf("cluster: -map and -traces are required")
	}
	lvl, err := parseLevel(*level)
	if err != nil {
		return err
	}
	w, err := parseWeights(*weights)
	if err != nil {
		return err
	}
	g, err := loadMap(*mapPath)
	if err != nil {
		return err
	}
	ds, err := loadTraces(*tracesPath)
	if err != nil {
		return err
	}
	cfg := neat.Config{
		Flow:   neat.FlowConfig{Weights: w, MinCard: *minCard, Beta: *beta},
		Refine: neat.RefineConfig{Epsilon: *eps, UseELB: true, Bounded: true, Workers: *workers},
	}
	var cache *distcache.Cache
	if *cacheEntries >= 0 {
		cache = distcache.New(*cacheEntries)
		cfg.Refine.Cache = cache
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	p := neat.NewPipeline(g)
	p.EnableTracing(*trace)
	var res *neat.Result
	if *workers != 0 {
		res, err = p.RunParallel(ds, cfg, lvl, *workers)
	} else {
		res, err = p.Run(ds, cfg, lvl)
	}
	if err != nil {
		return err
	}
	printResult(g, res)
	if cache != nil {
		st := cache.CacheStats()
		fmt.Printf("  distance cache: %d/%d entries, %d hits / %d misses (%.1f%% hit rate)\n",
			st.Entries, st.Capacity, st.Hits, st.Misses, 100*st.HitRate())
	}
	if *trace {
		fmt.Println("trace:")
		res.Trace.WriteTree(os.Stdout)
	}
	if *svg != "" {
		if err := writeClusterSVG(g, ds, res, *svg); err != nil {
			return err
		}
		fmt.Printf("visualization written to %s\n", *svg)
	}
	if *jsonOut != "" {
		if err := writeClusterJSON(g, res, *jsonOut); err != nil {
			return err
		}
		fmt.Printf("results written to %s\n", *jsonOut)
	}
	return nil
}

// jsonFlow / jsonCluster / jsonResult are the CLI's machine-readable
// result schema (a file-shaped cousin of the server's API DTOs).
type jsonFlow struct {
	Route       []int32 `json:"route"`
	RouteLength float64 `json:"route_length_m"`
	Cardinality int     `json:"cardinality"`
	Density     int     `json:"density"`
}

type jsonCluster struct {
	Flows       []jsonFlow `json:"flows"`
	Cardinality int        `json:"cardinality"`
}

type jsonResult struct {
	Level        string        `json:"level"`
	Fragments    int           `json:"fragments"`
	BaseClusters int           `json:"base_clusters"`
	Flows        []jsonFlow    `json:"flows,omitempty"`
	Clusters     []jsonCluster `json:"clusters,omitempty"`
	TotalMs      float64       `json:"total_ms"`
}

func writeClusterJSON(g *roadnet.Graph, res *neat.Result, path string) error {
	toFlow := func(f *neat.FlowCluster) jsonFlow {
		jf := jsonFlow{
			RouteLength: f.RouteLength(g),
			Cardinality: f.Cardinality(),
			Density:     f.Density(),
		}
		for _, s := range f.Route {
			jf.Route = append(jf.Route, int32(s))
		}
		return jf
	}
	out := jsonResult{
		Level:        res.Level.String(),
		Fragments:    res.NumFragments,
		BaseClusters: len(res.BaseClusters),
		TotalMs:      float64(res.Timing.Total().Microseconds()) / 1000,
	}
	for _, f := range res.Flows {
		out.Flows = append(out.Flows, toFlow(f))
	}
	for _, c := range res.Clusters {
		jc := jsonCluster{Cardinality: c.Cardinality()}
		for _, f := range c.Flows {
			jc.Flows = append(jc.Flows, toFlow(f))
		}
		out.Clusters = append(out.Clusters, jc)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("encode results: %w", err)
	}
	return f.Close()
}

func parseWeights(s string) (neat.Weights, error) {
	switch strings.ToLower(s) {
	case "flow":
		return neat.WeightsFlowOnly, nil
	case "density":
		return neat.WeightsDensityOnly, nil
	case "speed":
		return neat.WeightsSpeedOnly, nil
	case "balanced":
		return neat.WeightsBalanced, nil
	case "monitoring":
		return neat.WeightsTrafficMonitoring, nil
	default:
		return neat.Weights{}, fmt.Errorf("unknown weights preset %q", s)
	}
}

func printResult(g *roadnet.Graph, res *neat.Result) {
	fmt.Printf("%s results\n", res.Level)
	fmt.Printf("  phase 1: %d t-fragments -> %d base clusters in %s\n",
		res.NumFragments, len(res.BaseClusters), res.Timing.Phase1.Round(1e6))
	if len(res.BaseClusters) > 0 {
		dc := res.BaseClusters[0]
		fmt.Printf("  dense-core: segment %d with density %d (%d trajectories)\n",
			dc.Seg, dc.Density(), dc.Cardinality())
	}
	if res.Level >= neat.LevelFlow {
		fmt.Printf("  phase 2: %d flow clusters (%d filtered by minCard) in %s\n",
			len(res.Flows), res.FilteredFlows, res.Timing.Phase2.Round(1e6))
		for i, f := range res.Flows {
			if i >= 10 {
				fmt.Printf("  ... and %d more flows\n", len(res.Flows)-10)
				break
			}
			fmt.Printf("    flow %d: %d segments, %.0f m, %d trajectories\n",
				i, len(f.Route), f.RouteLength(g), f.Cardinality())
		}
	}
	if res.Level >= neat.LevelOpt {
		fmt.Printf("  phase 3: %d final clusters in %s (%d SP queries, %d pairs ELB-pruned)\n",
			len(res.Clusters), res.Timing.Phase3.Round(1e6),
			res.RefineStats.SPQueries, res.RefineStats.ELBPruned)
		if res.RefineStats.Workers > 0 {
			fmt.Printf("    %d workers, %d one-to-many expansions, %d pairs grid-pruned (graph %s, cluster %s)\n",
				res.RefineStats.Workers, res.RefineStats.Expansions, res.RefineStats.PrunedPairs,
				res.RefineStats.GraphTime.Round(1e6), res.RefineStats.ClusterTime.Round(1e6))
		}
	}
	fmt.Printf("  total: %s\n", res.Timing.Total().Round(1e6))
}

func writeClusterSVG(g *roadnet.Graph, ds traj.Dataset, res *neat.Result, path string) error {
	c := viz.NewCanvas(g, 1200)
	c.DrawNetwork()
	c.DrawDataset(ds)
	switch {
	case res.Clusters != nil:
		if err := c.DrawClusters(res.Clusters); err != nil {
			return err
		}
	case res.Flows != nil:
		if err := c.DrawFlows(res.Flows); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	defer f.Close()
	if _, err := c.WriteTo(f); err != nil {
		return err
	}
	return f.Close()
}

func cmdTraClus(args []string) error {
	fs := newFlagSet("traclus")
	mapPath := fs.String("map", "", "road network file (required for -svg)")
	tracesPath := fs.String("traces", "", "trajectory file (required)")
	eps := fs.Float64("eps", 10, "line-segment distance threshold")
	minLns := fs.Int("minlns", 5, "DBSCAN MinLns")
	svg := fs.String("svg", "", "write representative trajectories to this SVG file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tracesPath == "" {
		return fmt.Errorf("traclus: -traces is required")
	}
	ds, err := loadTraces(*tracesPath)
	if err != nil {
		return err
	}
	res, err := traclus.Run(ds, traclus.Config{Epsilon: *eps, MinLns: *minLns})
	if err != nil {
		return err
	}
	fmt.Printf("TraClus results\n")
	fmt.Printf("  partition: %d line segments in %s\n", res.NumSegments, res.Timing.Partition.Round(1e6))
	fmt.Printf("  group: %d clusters, %d noise segments, %d discarded in %s (%d distance calls)\n",
		len(res.Clusters), res.NoiseSegments, res.DiscardedClusters,
		res.Timing.Group.Round(1e6), res.DistanceCalls)
	if *svg != "" {
		if *mapPath == "" {
			return fmt.Errorf("traclus: -map is required with -svg")
		}
		g, err := loadMap(*mapPath)
		if err != nil {
			return err
		}
		c := viz.NewCanvas(g, 1200)
		c.DrawNetwork()
		c.DrawTraClus(res.Clusters)
		f, err := os.Create(*svg)
		if err != nil {
			return fmt.Errorf("create %s: %w", *svg, err)
		}
		defer f.Close()
		if _, err := c.WriteTo(f); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("visualization written to %s\n", *svg)
	}
	return nil
}

func cmdStats(args []string) error {
	fs := newFlagSet("stats")
	mapPath := fs.String("map", "", "road network file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *mapPath == "" {
		return fmt.Errorf("stats: -map is required")
	}
	g, err := loadMap(*mapPath)
	if err != nil {
		return err
	}
	s := roadnet.ComputeStats(g)
	comps, largest := roadnet.ConnectedComponents(g)
	fmt.Printf("total length:    %.1f km\n", s.TotalLengthKm)
	fmt.Printf("segments:        %d (avg %.1f m)\n", s.NumSegments, s.AvgSegLenM)
	fmt.Printf("junctions:       %d (degree avg %.2f, max %d)\n", s.NumJunctions, s.AvgDegree, s.MaxDegree)
	fmt.Printf("components:      %d (largest %d junctions)\n", comps, largest)
	return nil
}
