package neat

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/traj"
)

// This file is the staged execution engine: NEAT's three phases as
// composable stage values plus the planner that sequences them. The
// paper's dataflow — partition → base clusters → flow merge → refine —
// used to be hard-coded three separate times (Run, RunParallel,
// RunFragments) and re-wrapped by hand in stream and server; it now
// lives in exactly one place. Every entry point is a thin layer over
// this engine:
//
//	Run            = NewPlan(cfg, level, FromDataset,   Exec{})
//	RunParallel    = NewPlan(cfg, level, FromDataset,   Exec{Workers: w})
//	RunFragments   = NewPlan(cfg, level, FromFragments, Exec{})
//	RunFlowSet     = a minCard filter + RefineStage{Cfg: cfg.Refine}
//	stream.Ingest  = NewPlan(cfg, LevelFlow, FromDataset, Exec{}) + an EpsGraph merge
//
// Each stage owns its obs span and work annotations, charges its phase
// timer, and carries a deterministic contract: for fixed inputs the
// outputs are byte-identical regardless of worker count (the
// differential selftest suite pins this against the naive oracle).

// PlanInput selects the material a plan starts from.
type PlanInput uint8

const (
	// FromDataset starts at raw trajectories: the plan opens with the
	// Phase 1 partition stage.
	FromDataset PlanInput = iota
	// FromFragments starts at pre-extracted t-fragments (the
	// incremental/online entry of §III-C): the partition stage is
	// skipped.
	FromFragments
)

// String implements fmt.Stringer.
func (in PlanInput) String() string {
	switch in {
	case FromDataset:
		return "dataset"
	case FromFragments:
		return "fragments"
	default:
		return fmt.Sprintf("input(%d)", uint8(in))
	}
}

// Exec carries the execution-shape knobs of a plan: how work is
// scheduled, never what is computed. Clustering output is identical
// for every Exec value.
type Exec struct {
	// Workers parallelizes Phase 1 trajectory partitioning (and, via
	// the RunParallel convention, Phase 3 unless RefineConfig.Workers
	// pins its own count): 0 = serial, negative = GOMAXPROCS.
	Workers int
}

// Input is the starting material handed to RunPlan; only the field
// matching the plan's PlanInput is consulted.
type Input struct {
	Dataset   traj.Dataset
	Fragments []traj.TFragment
}

// state threads the dataflow through a plan's stages.
type state struct {
	ctx   context.Context
	in    Input
	frags []traj.TFragment
	res   *Result
	// flowSet, when set, is the flow set whose flows at minCard the
	// refine stage merges (RunFlowSet), so the batched builder may use
	// and keep its junction table.
	flowSet *FlowSet
	minCard int
}

// Stage is one composable step of a NEAT execution plan. The concrete
// stages — PartitionStage, BaseClusterStage, FlowMergeStage,
// RefineStage — are the closed set the planner composes; each is a
// plain value describing its inputs, so plans are inspectable and
// comparable.
type Stage interface {
	// Name identifies the stage in plan renderings.
	Name() string
	// run executes the stage against the pipeline's graph, reading and
	// writing the typed slots of st and annotating the run's span tree.
	run(p *Pipeline, st *state) error
}

// PartitionStage is Phase 1, step 1: split every trajectory into its
// t-fragment sequence, repairing sampling gaps with shortest-path
// routes. Contract: the fragment list equals the serial
// Partitioner.PartitionDataset output for any Workers value.
type PartitionStage struct {
	// Workers parallelizes the trajectory loop; 0 = serial.
	Workers int
}

// Name implements Stage.
func (s PartitionStage) Name() string { return "partition" }

func (s PartitionStage) run(p *Pipeline, st *state) error {
	sp := st.res.Trace.StartChild("phase1.partition")
	sp.Annotate("trajectories", len(st.in.Dataset.Trajectories))
	start := time.Now()
	var frags []traj.TFragment
	var err error
	if s.Workers != 0 {
		sp.Annotate("workers", s.Workers)
		frags, err = traj.PartitionDatasetParallel(p.g, st.in.Dataset, s.Workers)
	} else {
		frags, err = p.part.PartitionDataset(st.in.Dataset)
	}
	if err != nil {
		return fmt.Errorf("neat: phase 1 partitioning: %w", err)
	}
	st.frags = frags
	st.res.Timing.Phase1 += time.Since(start)
	sp.Annotate("fragments", len(frags))
	sp.End()
	return nil
}

// BaseClusterStage is Phase 1, step 2: group t-fragments by road
// segment into base clusters ordered by density desc, segment id asc.
type BaseClusterStage struct{}

// Name implements Stage.
func (s BaseClusterStage) Name() string { return "base_clusters" }

func (s BaseClusterStage) run(p *Pipeline, st *state) error {
	if st.frags == nil {
		if err := checkOnGraph(p.g, st.in.Fragments); err != nil {
			return err
		}
		st.frags = st.in.Fragments
	}
	st.res.NumFragments = len(st.frags)
	sp := st.res.Trace.StartChild("phase1.base_clusters")
	start := time.Now()
	st.res.BaseClusters = FormBaseClusters(st.frags)
	st.res.Timing.Phase1 += time.Since(start)
	sp.Annotate("fragments", len(st.frags))
	sp.Annotate("base_clusters", len(st.res.BaseClusters))
	sp.End()
	return nil
}

// FlowMergeStage is Phase 2: merge base clusters into flow clusters by
// the greedy dense-core expansion of §III-B.
type FlowMergeStage struct {
	Cfg FlowConfig
}

// Name implements Stage.
func (s FlowMergeStage) Name() string { return "flow_merge" }

func (s FlowMergeStage) run(p *Pipeline, st *state) error {
	sp := st.res.Trace.StartChild("phase2.flow_clusters")
	start := time.Now()
	flows, filtered, err := FormFlowClusters(p.g, st.res.BaseClusters, s.Cfg)
	if err != nil {
		return fmt.Errorf("neat: phase 2 flow formation: %w", err)
	}
	st.res.Flows = flows
	st.res.FilteredFlows = filtered
	st.res.Timing.Phase2 += time.Since(start)
	// Each merge round seeds one flow from the densest unmerged base
	// cluster; rounds that fail the minCard filter are counted too.
	sp.Annotate("merge_rounds", len(flows)+filtered)
	sp.Annotate("flows", len(flows))
	sp.Annotate("filtered", filtered)
	sp.End()
	return nil
}

// RefineStage is Phase 3: merge flow clusters whose representative
// routes end within network distance ε, via the modified Hausdorff
// predicate and deterministic DBSCAN. Cfg.Workers picks the ε-graph
// builder — the paper's serial scan (0), or the batched one-to-many
// builder for the Dijkstra kernel at finite ε, which the server's reads
// run; both yield the identical clustering.
// It refines the flows in the result so far: Phase 2's output, or the
// filtered flow set RunFlowSet puts there.
type RefineStage struct {
	Cfg RefineConfig
}

// Name implements Stage.
func (s RefineStage) Name() string { return "refine" }

func (s RefineStage) run(p *Pipeline, st *state) error {
	sp := st.res.Trace.StartChild("phase3.refine")
	start := time.Now()
	clusters, stats, err := refineFlows(st.ctx, p.g, st.res.Flows, s.Cfg, st.flowSet, st.minCard)
	if err != nil {
		return fmt.Errorf("neat: phase 3 refinement: %w", err)
	}
	st.res.Clusters = clusters
	st.res.RefineStats = stats
	st.res.Timing.Phase3 += time.Since(start)
	annotateRefine(sp, s.Cfg, stats, len(clusters))
	sp.End()
	return nil
}

// Plan is an immutable, ordered stage composition for one (config,
// level, input, exec) combination. Build one with NewPlan and execute
// it any number of times with Pipeline.RunPlan.
type Plan struct {
	stages []Stage
	level  Level
	input  PlanInput
}

// NewPlan composes and validates the stage sequence for the requested
// level over the given input. Validation is scoped to the stages the
// plan actually contains: a base-NEAT plan does not require a valid
// refinement config.
func NewPlan(cfg Config, level Level, in PlanInput, ex Exec) (*Plan, error) {
	if level > LevelOpt {
		return nil, fmt.Errorf("neat: unknown level %d", level)
	}
	pl := &Plan{level: level, input: in}
	if in == FromDataset {
		pl.stages = append(pl.stages, PartitionStage{Workers: ex.Workers})
	}
	pl.stages = append(pl.stages, BaseClusterStage{})
	if level >= LevelFlow {
		if err := cfg.Flow.Validate(); err != nil {
			return nil, err
		}
		pl.stages = append(pl.stages, FlowMergeStage{Cfg: cfg.Flow})
	}
	if level >= LevelOpt {
		if err := cfg.Refine.Validate(); err != nil {
			return nil, err
		}
		pl.stages = append(pl.stages, RefineStage{Cfg: cfg.Refine})
	}
	return pl, nil
}

// Stages returns a copy of the plan's stage sequence.
func (pl *Plan) Stages() []Stage { return append([]Stage(nil), pl.stages...) }

// Level returns the plan's clustering level.
func (pl *Plan) Level() Level { return pl.level }

// Input returns where the plan starts.
func (pl *Plan) Input() PlanInput { return pl.input }

// String renders the plan as "input → stage → stage …".
func (pl *Plan) String() string {
	var b strings.Builder
	b.WriteString(pl.input.String())
	for _, s := range pl.stages {
		b.WriteString(" → ")
		b.WriteString(s.Name())
	}
	return b.String()
}

// RunPlan executes a plan over the given input and records it into the
// pipeline's metrics registry as one run.
func (p *Pipeline) RunPlan(plan *Plan, in Input) (*Result, error) {
	return p.RunPlanCtx(context.Background(), plan, in)
}

// RunPlanCtx is RunPlan with cooperative cancellation. The context is
// checked between stages and threaded into Phase 3, whose builders
// poll it row-by-row (expansion-by-expansion on the batched path);
// Phase 1/2 stages are memory-bound and finish or fail atomically at
// stage granularity. On cancellation the partial result is discarded
// and the ctx error is returned — an identical re-run with a live
// context produces output byte-identical to a never-cancelled run.
func (p *Pipeline) RunPlanCtx(ctx context.Context, plan *Plan, in Input) (*Result, error) {
	res := &Result{Level: plan.level}
	res.Trace = p.newRunSpan("neat.run", plan.level)
	st := &state{ctx: ctx, in: in, res: res}
	for _, stage := range plan.stages {
		if err := ctx.Err(); err != nil {
			res.Trace.Annotate("cancelled", stage.Name())
			res.Trace.End()
			return nil, err
		}
		if err := stage.run(p, st); err != nil {
			return nil, err
		}
	}
	res.Trace.End()
	p.recordPhases12(res)
	p.recordRun(res)
	return res, nil
}
