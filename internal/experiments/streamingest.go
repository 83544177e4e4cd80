package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/neat"
	"repro/internal/stream"
	"repro/internal/traj"
)

// StreamIngestMode is one row of the stream-ingest artifact: the cost
// of one way to merge each batch into the windowed standing set.
type StreamIngestMode struct {
	Config        string  `json:"config"` // "cached" or "from_scratch"
	CacheEntries  int     `json:"cache_entries"`
	WarmMs        float64 `json:"warm_ms"`
	SteadyIngests int     `json:"steady_ingests"`
	PerIngestMs   float64 `json:"per_ingest_ms"`
	SPQueries     int64   `json:"sp_queries"`
	CacheHits     int64   `json:"cache_hits"`
	CacheMisses   int64   `json:"cache_misses"`
	Clusters      int     `json:"clusters"` // after the final ingest
}

// StreamIngestReport is the JSON document neatbench -streamjson emits:
// the fixed streaming scenario ingested to a full window and then
// driven through steady-state batches. The "cached" row is the
// clusterer itself: each ingest's wall clock with the persistent
// distance cache and the maintained ε-graph (the defaults). The
// "from_scratch" row times, for the same ingests, the merge the
// clusterer saves: the batch's Phase 1–2 time from the snapshot plus
// neat.RefineFlows over the standing flows with no cache. CI uploads
// it as BENCH_stream_ingest.json and guards the speedup.
type StreamIngestReport struct {
	Scale        float64            `json:"scale"`
	Region       string             `json:"region"`
	Trajectories int                `json:"trajectories"`
	Batches      int                `json:"batches"`
	Window       int                `json:"window"`
	Modes        []StreamIngestMode `json:"modes"`
	// Speedup is from-scratch-per-ingest / cached-per-ingest.
	Speedup float64 `json:"speedup"`
}

// streamBatches splits a dataset into n near-equal consecutive batches.
func streamBatches(ds traj.Dataset, n int) []traj.Dataset {
	per := (len(ds.Trajectories) + n - 1) / n
	var out []traj.Dataset
	for lo := 0; lo < len(ds.Trajectories); lo += per {
		hi := lo + per
		if hi > len(ds.Trajectories) {
			hi = len(ds.Trajectories)
		}
		out = append(out, traj.Dataset{Name: ds.Name, Trajectories: ds.Trajectories[lo:hi]})
	}
	return out
}

// StreamIngest runs the fixed steady-state streaming scenario and
// collects the report. It fails if a from-scratch merge ever clusters
// the standing flows differently from the snapshot, route for route:
// the cache and the maintained ε-graph are perf knobs, not result
// knobs, and timings of divergent runs would not be comparable.
func StreamIngest(e *Env) (*StreamIngestReport, error) {
	const (
		window       = 4
		totalBatches = 6
		steadyRounds = 8 // measured ingests after the warm window
	)
	g, err := e.Graph("ATL")
	if err != nil {
		return nil, err
	}
	ds, err := e.Dataset("ATL", 2000)
	if err != nil {
		return nil, err
	}
	bs := streamBatches(ds, totalBatches)
	rep := &StreamIngestReport{
		Scale:        e.Scale(),
		Region:       "ATL",
		Trajectories: len(ds.Trajectories),
		Batches:      len(bs),
		Window:       window,
	}
	cfg := stream.Config{Neat: e.NEATConfig(), Window: window}
	c, err := stream.New(g, cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: stream-ingest: %w", err)
	}
	// Ingest back to back, as a live stream would, keeping what the
	// from-scratch merges need; time those merges afterwards, so that
	// neither side's allocations land in the other's timings.
	type ingest struct {
		took     time.Duration
		snap     stream.Snapshot
		standing []*neat.FlowCluster
	}
	ingests := make([]ingest, window+steadyRounds)
	for i := range ingests {
		start := time.Now()
		snap, err := c.Ingest(bs[i%len(bs)])
		if err != nil {
			return nil, fmt.Errorf("experiments: stream-ingest ingest %d: %w", i, err)
		}
		ingests[i] = ingest{time.Since(start), snap, c.StandingFlows()}
	}
	cached := StreamIngestMode{Config: "cached", SteadyIngests: steadyRounds}
	scratch := StreamIngestMode{Config: "from_scratch", CacheEntries: -1, SteadyIngests: steadyRounds}
	for i, in := range ingests {
		start := time.Now()
		clusters, stats, err := neat.RefineFlows(g, in.standing, cfg.Neat.Refine)
		tookScratch := in.snap.Timing.Phase1 + in.snap.Timing.Phase2 + time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("experiments: stream-ingest from-scratch merge %d: %w", i, err)
		}
		if got, want := renderRoutes(in.snap.Clusters), renderRoutes(clusters); got != want {
			return nil, fmt.Errorf("experiments: stream-ingest ingest %d: output diverges from a from-scratch merge\ngot:\n%swant:\n%s", i, got, want)
		}
		if i < window {
			cached.WarmMs += ms(in.took)
			scratch.WarmMs += ms(tookScratch)
		} else {
			cached.PerIngestMs += ms(in.took) / steadyRounds
			scratch.PerIngestMs += ms(tookScratch) / steadyRounds
			cached.SPQueries += in.snap.RefineStats.SPQueries
			scratch.SPQueries += stats.SPQueries
		}
		cached.Clusters, scratch.Clusters = len(in.snap.Clusters), len(clusters)
	}
	cs := c.CacheStats()
	cached.CacheHits, cached.CacheMisses = cs.Hits, cs.Misses
	rep.Modes = []StreamIngestMode{cached, scratch}
	if cached.PerIngestMs > 0 {
		rep.Speedup = scratch.PerIngestMs / cached.PerIngestMs
	}
	return rep, nil
}

// renderRoutes renders a clustering route for route: cluster order,
// flow order within each cluster, and every flow's route.
func renderRoutes(cs []*neat.TrajectoryCluster) string {
	var b strings.Builder
	for i, c := range cs {
		fmt.Fprintf(&b, "cluster %d:", i)
		for _, f := range c.Flows {
			fmt.Fprintf(&b, " %v", f.Route)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
