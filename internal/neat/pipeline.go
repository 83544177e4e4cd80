package neat

import (
	"context"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// Level selects how many NEAT phases to run. The paper's §IV evaluates
// all three as base-NEAT, flow-NEAT, and opt-NEAT: "NEAT allows users
// to perform trajectory clustering using any of these three versions".
type Level uint8

const (
	// LevelBase stops after Phase 1 (base-NEAT): the output is the
	// density-ordered base clusters.
	LevelBase Level = iota
	// LevelFlow stops after Phase 2 (flow-NEAT): the output adds flow
	// clusters.
	LevelFlow
	// LevelOpt runs all three phases (opt-NEAT): the output adds the
	// refined trajectory clusters.
	LevelOpt
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelBase:
		return "base-NEAT"
	case LevelFlow:
		return "flow-NEAT"
	case LevelOpt:
		return "opt-NEAT"
	default:
		return fmt.Sprintf("level(%d)", uint8(l))
	}
}

// Config carries the parameters of a full NEAT run.
type Config struct {
	Flow   FlowConfig
	Refine RefineConfig
}

// Validate checks the full configuration — both phase configs — in one
// place. Entry points that run a subset of the phases (NewPlan)
// validate only the phases they run; boundary layers (stream,
// server, the CLI) validate everything up front with this.
func (c Config) Validate() error {
	if err := c.Flow.Validate(); err != nil {
		return err
	}
	return c.Refine.Validate()
}

// DefaultConfig returns the configuration used for the paper's main
// experiments: maxFlow-style merging, minCard 5 (the average flow
// cardinality in Fig 3), and ELB-accelerated refinement with the Fig 3
// threshold ε = 6500 m.
func DefaultConfig() Config {
	return Config{
		Flow: FlowConfig{
			Weights: WeightsFlowOnly,
			MinCard: 5,
		},
		Refine: RefineConfig{
			Epsilon: 6500,
			UseELB:  true,
			Bounded: true,
		},
	}
}

// Timing records per-phase wall-clock durations.
type Timing struct {
	Phase1 time.Duration // t-fragment extraction + base cluster formation
	Phase2 time.Duration // flow cluster formation
	Phase3 time.Duration // refinement
}

// Total returns the summed duration of the executed phases.
func (t Timing) Total() time.Duration { return t.Phase1 + t.Phase2 + t.Phase3 }

// Result is the output of a NEAT run. Fields beyond the requested level
// are empty (e.g. Clusters is nil for a flow-NEAT run).
type Result struct {
	Level Level
	// NumFragments is the number of t-fragments extracted in Phase 1.
	NumFragments int
	// BaseClusters is Phase 1's output, sorted by descending density;
	// the first element is the dense-core.
	BaseClusters []*BaseCluster
	// Flows is Phase 2's output after the minCard filter.
	Flows []*FlowCluster
	// FilteredFlows counts the flows dropped by the minCard filter.
	FilteredFlows int
	// Clusters is Phase 3's output: the final trajectory clusters.
	Clusters []*TrajectoryCluster
	// Timing holds per-phase durations; RefineStats the Phase 3 work
	// counters (Fig 7).
	Timing      Timing
	RefineStats RefineStats
	// Trace is the span tree of this run when tracing was enabled on
	// the pipeline (see Pipeline.EnableTracing); nil otherwise. It
	// carries the per-phase wall times plus work annotations (fragment
	// counts, merge rounds, shortest-path query counts, ELB prune
	// rates) and the Phase 3 ε-graph vs. DBSCAN split.
	Trace *obs.Span
}

// Pipeline runs NEAT over a fixed road network. It keeps the graph,
// the Phase 1 partitioner pool, its metrics handles and the trace flag
// — every run's state lives in the run — so create one pipeline per
// graph and reuse it across datasets. It is safe for concurrent use
// once Instrument and EnableTracing have run.
type Pipeline struct {
	g     *roadnet.Graph
	parts *traj.PartitionPool
	trace bool
	m     pipelineMetrics
}

// NewPipeline creates a Pipeline over g.
func NewPipeline(g *roadnet.Graph) *Pipeline {
	return &Pipeline{g: g, parts: traj.NewPartitionPool(g)}
}

// Graph returns the pipeline's road network.
func (p *Pipeline) Graph() *roadnet.Graph { return p.g }

// pipelineMetrics holds pre-resolved metric handles. All fields are
// nil on an uninstrumented pipeline, making every recording call a
// no-op — observability never changes clustering output either way.
type pipelineMetrics struct {
	runs      *obs.Counter
	fragments *obs.Counter
	flows     *obs.Counter
	clusters  *obs.Counter
	spQueries *obs.Counter
	settled   *obs.Counter
	elbPruned *obs.Counter
	phase     [3]*obs.Histogram
}

// phaseBuckets span sub-millisecond Phase 2 merges up to multi-second
// Phase 1 partitionings (seconds).
var phaseBuckets = []float64{.0001, .0005, .001, .005, .01, .05, .1, .5, 1, 5, 10, 30}

// Instrument attaches a metrics registry: every subsequent run records
// run/fragment/flow/cluster counters, shortest-path work totals, and
// per-phase latency histograms. A nil registry detaches (the default).
func (p *Pipeline) Instrument(reg *obs.Registry) {
	p.m = pipelineMetrics{
		runs:      reg.Counter("neat_runs_total"),
		fragments: reg.Counter("neat_fragments_total"),
		flows:     reg.Counter("neat_flows_total"),
		clusters:  reg.Counter("neat_clusters_total"),
		spQueries: reg.Counter("neat_sp_queries_total"),
		settled:   reg.Counter("neat_settled_nodes_total"),
		elbPruned: reg.Counter("neat_elb_pruned_total"),
		phase: [3]*obs.Histogram{
			reg.Histogram("neat_phase_seconds", phaseBuckets, obs.L("phase", "1")),
			reg.Histogram("neat_phase_seconds", phaseBuckets, obs.L("phase", "2")),
			reg.Histogram("neat_phase_seconds", phaseBuckets, obs.L("phase", "3")),
		},
	}
}

// EnableTracing toggles per-run span collection; when on, each run
// returns its span tree in Result.Trace (neatcli -trace prints it).
func (p *Pipeline) EnableTracing(on bool) { p.trace = on }

// newRunSpan starts the root span of one run, or nil when tracing is
// off (all span operations on nil are no-ops).
func (p *Pipeline) newRunSpan(name string, level Level) *obs.Span {
	if !p.trace {
		return nil
	}
	root := obs.StartSpan(name)
	root.Annotate("level", level)
	return root
}

// recordPhases12 charges the Phase 1–2 work of a result: the fragments
// grouped and the phase 1 (and, past base level, phase 2) latencies.
func (p *Pipeline) recordPhases12(res *Result) {
	p.m.fragments.Add(int64(res.NumFragments))
	p.m.phase[0].ObserveDuration(res.Timing.Phase1)
	if res.Level >= LevelFlow {
		p.m.phase[1].ObserveDuration(res.Timing.Phase2)
	}
}

// recordRun counts one answered run: its output sizes, the Phase 3
// shortest-path work, and (at opt level) the phase 3 latency.
func (p *Pipeline) recordRun(res *Result) {
	p.m.runs.Inc()
	p.m.flows.Add(int64(len(res.Flows)))
	p.m.clusters.Add(int64(len(res.Clusters)))
	p.m.spQueries.Add(res.RefineStats.SPQueries)
	p.m.settled.Add(res.RefineStats.SettledNodes)
	p.m.elbPruned.Add(int64(res.RefineStats.ELBPruned))
	if res.Level >= LevelOpt {
		p.m.phase[2].ObserveDuration(res.Timing.Phase3)
	}
}

// Run executes NEAT on the dataset up to the requested level. It is a
// thin plan over the plan engine (see stage.go); phase sequencing
// lives in RunPlanCtx.
func (p *Pipeline) Run(ds traj.Dataset, cfg Config, level Level) (*Result, error) {
	plan, err := NewPlan(cfg, level, FromDataset, Exec{})
	if err != nil {
		return nil, err
	}
	return p.RunPlan(plan, Input{Dataset: ds})
}

// RunParallel is Run with Phase 1's trajectory partitioning sharded
// across the given number of workers (0 = GOMAXPROCS, negatives
// likewise resolve via conc.Workers). Phase 1 dominates NEAT's cost
// (Fig 6(b)) and is embarrassingly parallel across trajectories.
// Phase 3 also runs with the same worker count unless cfg.Refine
// already pins one: with the Dijkstra kernel and a finite ε the
// ε-graph is then built by the batched one-to-many builder, and every
// other kernel keeps the serial scan (see RefineConfig.Workers). Either
// way the output is identical to the serial scan's, so results match
// Run exactly.
func (p *Pipeline) RunParallel(ds traj.Dataset, cfg Config, level Level, workers int) (*Result, error) {
	if workers <= 0 {
		workers = -1 // resolve to GOMAXPROCS at the pools
	}
	if cfg.Refine.Workers == 0 {
		cfg.Refine.Workers = workers
	}
	plan, err := NewPlan(cfg, level, FromDataset, Exec{Workers: workers})
	if err != nil {
		return nil, err
	}
	return p.RunPlan(plan, Input{Dataset: ds})
}

// RunFragments executes Phases 2 and 3 on pre-partitioned fragments,
// supporting the incremental/online use the paper motivates in §III-C:
// the first two phases run on each newly arrived batch and the
// resulting flows merge with the standing flow set in Phase 3.
func (p *Pipeline) RunFragments(frags []traj.TFragment, cfg Config, level Level) (*Result, error) {
	plan, err := NewPlan(cfg, level, FromFragments, Exec{})
	if err != nil {
		return nil, err
	}
	return p.RunPlan(plan, Input{Fragments: frags})
}

// annotateRefine attaches Phase 3's work counters to its span and
// splits it into the ε-graph construction and DBSCAN sub-spans using
// the durations RefineStats measured.
func annotateRefine(sp *obs.Span, cfg RefineConfig, stats RefineStats, clusters int) {
	if sp == nil {
		return
	}
	sp.Annotate("kernel", cfg.Algo)
	sp.Annotate("pairs", stats.Pairs)
	sp.Annotate("elb_pruned", stats.ELBPruned)
	if stats.Pairs > 0 {
		sp.Annotate("elb_prune_rate", fmt.Sprintf("%.1f%%", 100*float64(stats.ELBPruned)/float64(stats.Pairs)))
	}
	sp.Annotate("sp_queries", stats.SPQueries)
	sp.Annotate("settled_nodes", stats.SettledNodes)
	if stats.Workers > 0 {
		sp.Annotate("workers", stats.Workers)
		sp.Annotate("expansions", stats.Expansions)
		sp.Annotate("grid_pruned", stats.PrunedPairs)
	}
	if probes := stats.CacheHits + stats.CacheMisses; probes > 0 {
		sp.Annotate("cache_hits", stats.CacheHits)
		sp.Annotate("cache_hit_rate", fmt.Sprintf("%.1f%%", 100*float64(stats.CacheHits)/float64(probes)))
	}
	sp.Annotate("clusters", clusters)
	eg := sp.AddChild("phase3.eps_graph", sp.Start(), stats.GraphTime)
	eg.Annotate("sp_queries", stats.SPQueries)
	eg.Annotate("settled_nodes", stats.SettledNodes)
	if stats.Workers > 0 {
		table := "built"
		if stats.FromTable {
			table = "kept"
		}
		eg.Annotate("pair_table", table)
	}
	db := sp.AddChild("phase3.dbscan", sp.Start().Add(stats.GraphTime), stats.ClusterTime)
	db.Annotate("clusters", clusters)
}

// AnnotateRefineSpan attaches Phase 3 work counters (and the ε-graph /
// DBSCAN sub-spans) to a caller-owned span, exactly as the pipeline
// annotates its own "phase3.refine" spans. Callers that run Phase 3
// outside a plan — the streaming clusterer's incremental merge — use
// this so their traces stay shape-compatible with pipeline traces.
func AnnotateRefineSpan(sp *obs.Span, cfg RefineConfig, stats RefineStats, clusters int) {
	annotateRefine(sp, cfg, stats, clusters)
}

// Partition runs Phase 1's trajectory partitioning alone, on one
// worker, for callers that manage fragments themselves (tests and the
// root paper benchmarks).
func (p *Pipeline) Partition(ds traj.Dataset) ([]traj.TFragment, error) {
	frags, _, err := p.PartitionEach(context.Background(), 1, len(ds.Trajectories), datasetSource(ds))
	return frags, err
}

// PartitionEach partitions the n trajectories source yields by index
// on the pipeline's partitioner pool (traj.PartitionPool.Partition):
// a plan's partition step, and a session's ingest on its data nodes.
func (p *Pipeline) PartitionEach(ctx context.Context, workers, n int, source func(int) (traj.Trajectory, error)) ([]traj.TFragment, []traj.Trajectory, error) {
	return p.parts.Partition(ctx, workers, n, source)
}

func datasetSource(ds traj.Dataset) func(int) (traj.Trajectory, error) {
	return func(i int) (traj.Trajectory, error) { return ds.Trajectories[i], nil }
}
