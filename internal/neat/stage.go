package neat

import (
	"context"
	"fmt"
	"time"

	"repro/internal/traj"
)

// This file is the plan engine: NEAT's dataflow — partition → base
// clusters → flow merge → refine — runs in the paper's fixed order in
// one function, RunPlanCtx. A plan only says where the run starts,
// where it stops, and how many workers partition; every entry point is
// a thin layer over it:
//
//	Run            = NewPlan(cfg, level, FromDataset,   Exec{})
//	RunParallel    = NewPlan(cfg, level, FromDataset,   Exec{Workers: w})
//	RunFragments   = NewPlan(cfg, level, FromFragments, Exec{})
//	RunFlowSet     = a minCard filter + the plan's Phase 3 step (refine)
//	stream.Ingest  = NewPlan(cfg, LevelFlow, FromDataset, Exec{}) + an EpsGraph merge
//
// Each step owns its obs span and work annotations, charges its phase
// timer, and carries a deterministic contract: for fixed inputs the
// outputs are byte-identical regardless of worker count (the
// differential selftest suite pins this against the naive oracle).

// PlanInput selects the material a plan starts from.
type PlanInput uint8

const (
	// FromDataset starts at raw trajectories: the plan opens with the
	// Phase 1 partition step.
	FromDataset PlanInput = iota
	// FromFragments starts at pre-extracted t-fragments (the
	// incremental/online entry of §III-C): the partition step is
	// skipped.
	FromFragments
)

// Exec carries the execution-shape knobs of a plan: how work is
// scheduled, never what is computed. Clustering output is identical
// for every Exec value.
type Exec struct {
	// Workers parallelizes Phase 1 trajectory partitioning (and, via
	// the RunParallel convention, Phase 3 unless RefineConfig.Workers
	// pins its own count): 0 = one worker, negative = GOMAXPROCS.
	Workers int
}

// Input is the starting material handed to RunPlan; only the field
// matching the plan's PlanInput is consulted.
type Input struct {
	Dataset   traj.Dataset
	Fragments []traj.TFragment
}

// Plan is an immutable, validated run description for one (config,
// level, input, exec) combination. Build one with NewPlan and execute
// it any number of times with Pipeline.RunPlan.
type Plan struct {
	cfg     Config
	level   Level
	input   PlanInput
	workers int
}

// NewPlan validates the run for the requested level over the given
// input. Validation is scoped to the phases the plan runs: a base-NEAT
// plan does not require a valid refinement config.
func NewPlan(cfg Config, level Level, in PlanInput, ex Exec) (*Plan, error) {
	if level > LevelOpt {
		return nil, fmt.Errorf("neat: unknown level %d", level)
	}
	if level >= LevelFlow {
		if err := cfg.Flow.Validate(); err != nil {
			return nil, err
		}
	}
	if level >= LevelOpt {
		if err := cfg.Refine.Validate(); err != nil {
			return nil, err
		}
	}
	return &Plan{cfg: cfg, level: level, input: in, workers: ex.Workers}, nil
}

// RunPlan executes a plan over the given input and records it into the
// pipeline's metrics registry as one run.
func (p *Pipeline) RunPlan(plan *Plan, in Input) (*Result, error) {
	return p.RunPlanCtx(context.Background(), plan, in)
}

// RunPlanCtx is RunPlan with cooperative cancellation. The context is
// checked before each step — partition, base_clusters, flow_merge,
// refine — and threaded into Phase 1, whose workers check it before
// each trajectory, and into Phase 3, whose builders poll it
// row-by-row (expansion-by-expansion on the batched path); the
// base_clusters and flow_merge steps are memory-bound and finish or
// fail atomically. On cancellation the partial result is discarded and
// the ctx error is returned — an identical re-run with a live context
// produces output byte-identical to a never-cancelled run.
func (p *Pipeline) RunPlanCtx(ctx context.Context, plan *Plan, in Input) (*Result, error) {
	res := &Result{Level: plan.level}
	res.Trace = p.newRunSpan("neat.run", plan.level)

	// Phase 1, step 1: split every trajectory into its t-fragment
	// sequence, repairing sampling gaps with shortest-path routes. The
	// fragment list equals a serial Partitioner's for any worker count.
	frags := in.Fragments
	if plan.input == FromDataset {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sp := res.Trace.StartChild("phase1.partition")
		sp.Annotate("trajectories", len(in.Dataset.Trajectories))
		workers := plan.workers
		if workers != 0 {
			sp.Annotate("workers", workers)
		} else {
			workers = 1
		}
		start := time.Now()
		var err error
		if frags, _, err = p.PartitionEach(ctx, workers, len(in.Dataset.Trajectories), datasetSource(in.Dataset)); err != nil {
			return nil, fmt.Errorf("neat: phase 1 partitioning: %w", err)
		}
		res.Timing.Phase1 += time.Since(start)
		sp.Annotate("fragments", len(frags))
		sp.End()
	}

	// Phase 1, step 2: group t-fragments by road segment into base
	// clusters ordered by density desc, segment id asc.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if plan.input == FromFragments {
		if err := checkOnGraph(p.g, frags); err != nil {
			return nil, err
		}
	}
	res.NumFragments = len(frags)
	sp := res.Trace.StartChild("phase1.base_clusters")
	start := time.Now()
	res.BaseClusters = FormBaseClusters(frags)
	res.Timing.Phase1 += time.Since(start)
	sp.Annotate("fragments", len(frags))
	sp.Annotate("base_clusters", len(res.BaseClusters))
	sp.End()

	// Phase 2: merge base clusters into flow clusters by the greedy
	// dense-core expansion of §III-B.
	if plan.level >= LevelFlow {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sp := res.Trace.StartChild("phase2.flow_clusters")
		start := time.Now()
		flows, filtered, err := FormFlowClusters(p.g, res.BaseClusters, plan.cfg.Flow)
		if err != nil {
			return nil, fmt.Errorf("neat: phase 2 flow formation: %w", err)
		}
		res.Flows, res.FilteredFlows = flows, filtered
		res.Timing.Phase2 += time.Since(start)
		// Each merge round seeds one flow from the densest unmerged base
		// cluster; rounds that fail the minCard filter are counted too.
		sp.Annotate("merge_rounds", len(flows)+filtered)
		sp.Annotate("flows", len(flows))
		sp.Annotate("filtered", filtered)
		sp.End()
	}

	if plan.level >= LevelOpt {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := p.refine(ctx, res, plan.cfg.Refine, nil, 0); err != nil {
			return nil, err
		}
	}
	res.Trace.End()
	p.recordPhases12(res)
	p.recordRun(res)
	return res, nil
}

// refine is Phase 3, the step a plan and RunFlowSet share: merge the
// result's flows whose representative routes end within network
// distance ε, via the modified Hausdorff predicate and deterministic
// DBSCAN. cfg.Workers picks the ε-graph builder — the paper's serial
// scan (0), or the batched one-to-many builder for the Dijkstra kernel
// at finite ε, which the server's reads run; both yield the identical
// clustering. A non-nil fs says the flows are fs's flows at minCard,
// so the batched builder may use and keep its pair table.
func (p *Pipeline) refine(ctx context.Context, res *Result, cfg RefineConfig, fs *FlowSet, minCard int) error {
	sp := res.Trace.StartChild("phase3.refine")
	start := time.Now()
	clusters, stats, err := refineFlows(ctx, p.g, res.Flows, cfg, fs, minCard)
	if err != nil {
		return fmt.Errorf("neat: phase 3 refinement: %w", err)
	}
	res.Clusters = clusters
	res.RefineStats = stats
	res.Timing.Phase3 += time.Since(start)
	annotateRefine(sp, cfg, stats, len(clusters))
	sp.End()
	return nil
}
