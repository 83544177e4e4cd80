package neat

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/conc"
	"repro/internal/distcache"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// This file is the two-tier read path a server answers (level, ε,
// minCard) queries with. Neither per-read parameter touches Phases 1–2:
// ε enters only Phase 3, and minCard only filters Phase 2's output —
// FormFlowClusters marks every merged segment whatever the flow's
// cardinality, so the greedy never depends on the threshold. The Phase
// 1–2 product is therefore built once per fragment set (BuildFlowSet)
// and each read filters it and runs Phase 3 alone (RunFlowSet).
// Rendered output is byte-identical to a FromFragments plan of the same
// configuration.

// FlowSet is the parameter-independent product of Phases 1–2 over one
// fragment set. It holds no base cluster and no t-fragment: counts,
// detached flows and, once a batched read has refined it, the pair
// table of its loosest such read that fits the read's distance cache
// (20 bytes per candidate flow pair), so keeping one per published
// dataset is cheap. It is safe for concurrent reads.
type FlowSet struct {
	// BaseClusters is the number of Phase 1 base clusters.
	BaseClusters int
	// Flows is every Phase 2 flow — the minCard 0 list — in seed
	// order, each detached from its members (see FlowCluster.Detached).
	Flows []*FlowCluster

	// table is the pair table of the loosest batched read so far:
	// smallest minCard, widest ε (see epsGraph).
	table atomic.Pointer[pairTable]
}

// epsGraph is the batched builder for a read over flows, fs's flows at
// minCard. When the kept pair table answers the read (a minCard at
// least its own, an ε at most its own), only the filter runs: no grid
// scan, no cache probe, no shortest path, and stats say FromTable.
// Otherwise the read builds its own table through the cache and keeps
// it if it covers the kept one on both axes and holds no more entries
// than keepLimit; a table looser on one axis and tighter on the other
// stays.
func (fs *FlowSet) epsGraph(ctx context.Context, g *roadnet.Graph, flows []*FlowCluster, minCard int, cfg RefineConfig, stats *RefineStats) ([][]int, error) {
	t := fs.table.Load()
	if t.answers(g, minCard, cfg.Epsilon) {
		stats.FromTable = true
		stats.Workers = conc.WorkersFor(cfg.Workers, len(flows))
		return t.epsGraph(ctx, flows, cfg, stats)
	}
	t, err := buildPairTable(ctx, g, flows, cfg, stats)
	if err != nil {
		return nil, err
	}
	t.minCard = minCard
	for len(t.col) <= keepLimit(cfg.Cache) {
		kept := fs.table.Load()
		if kept != nil && !t.answers(kept.g, kept.minCard, kept.eps) {
			break
		}
		if fs.table.CompareAndSwap(kept, t) {
			break
		}
	}
	return t.epsGraph(ctx, flows, cfg, stats)
}

// keepLimit is the most entries a kept pair table may hold: the read's
// distance-cache capacity (distcache.DefaultEntries with no cache). An
// entry's 20 bytes are less than one cached distance takes, so a kept
// table never pins more than a full cache does, and a read too wide for
// it builds through the cache instead.
func keepLimit(c *distcache.Cache) int {
	if c == nil {
		return distcache.DefaultEntries
	}
	return c.Cap()
}

// Detached returns a copy of f without its member base clusters: the
// route, endpoints, participating trajectories and density survive, so
// Phase 3 and every accessor except Members see the same flow. The
// route and trajectory list are shared; both are immutable once built.
func (f *FlowCluster) Detached() *FlowCluster {
	return &FlowCluster{
		Route:    f.Route,
		trajs:    f.trajs,
		frontEnd: f.frontEnd,
		backEnd:  f.backEnd,
		density:  f.density,
	}
}

// filterFlows applies the minCard filter to a flow list: it returns the
// flows whose cardinality is at least minCard, in order, and how many
// were dropped. Over the minCard 0 list this equals FormFlowClusters
// run with that threshold.
func filterFlows(flows []*FlowCluster, minCard int) (kept []*FlowCluster, filtered int) {
	for _, f := range flows {
		if f.Cardinality() >= minCard {
			kept = append(kept, f)
		} else {
			filtered++
		}
	}
	return kept, filtered
}

// BuildFlowSet runs Phases 1–2 of a read after an ingest. Phase 1 folds
// frags, the fragments added since kept was built, into kept
// (ClusterSet.Extend); a nil kept is the empty set. Phase 2 runs over
// the folded set with cfg's flow settings, minCard forced to 0. It
// returns the detached flows and the folded set, which the caller keeps
// for its next build; kept itself is left as it was. The flows equal
// those of a FromFragments flow plan over every fragment folded so far.
// It records that fragment count and the phase 1 and 2 latencies, but
// is not a run: the reads answered from the set are (see RunFlowSet).
func (p *Pipeline) BuildFlowSet(ctx context.Context, kept *ClusterSet, frags []traj.TFragment, cfg Config) (*FlowSet, *ClusterSet, error) {
	cfg.Flow.MinCard = 0
	if err := cfg.Flow.Validate(); err != nil {
		return nil, nil, err
	}
	if kept == nil {
		var err error
		if kept, err = NewClusterSet(p.g, nil); err != nil {
			return nil, nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	res := &Result{Level: LevelFlow}
	res.Trace = p.newRunSpan("neat.run", LevelFlow)
	sp := res.Trace.StartChild("phase1.base_clusters")
	start := time.Now()
	cs, err := kept.Extend(frags)
	if err != nil {
		return nil, nil, err
	}
	res.Timing.Phase1 = time.Since(start)
	for _, b := range cs.order {
		res.NumFragments += b.density
	}
	sp.Annotate("fragments", len(frags))
	sp.Annotate("base_clusters", len(cs.order))
	sp.End()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	sp = res.Trace.StartChild("phase2.flow_clusters")
	start = time.Now()
	flows, _ := cs.formFlows(cs.order, cfg.Flow.withDefaults())
	res.Timing.Phase2 = time.Since(start)
	sp.Annotate("merge_rounds", len(flows))
	sp.Annotate("flows", len(flows))
	sp.End()
	res.Trace.End()
	p.recordPhases12(res)
	fs := &FlowSet{
		BaseClusters: len(cs.order),
		Flows:        make([]*FlowCluster, len(flows)),
	}
	for i, f := range flows {
		fs.Flows[i] = f.Detached()
	}
	return fs, cs, nil
}

// RunFlowSet answers one read from a flow set: past base level it
// filters the flows by cfg.Flow.MinCard, and at opt level it runs a
// plan's Phase 3 step over the survivors under a "neat.merge" root
// span. The result carries no base clusters (fs.BaseClusters counts
// them), no fragment count and only the Phase 3 timing. It counts as
// one run.
// With the batched builder, a read the set's kept pair table answers
// only filters it: no grid scan, no distance cache, no shortest path
// (FlowSet.epsGraph, RefineStats.FromTable); the clustering is the same
// either way.
// Concurrent calls on one set are safe.
func (p *Pipeline) RunFlowSet(ctx context.Context, fs *FlowSet, cfg Config, level Level) (*Result, error) {
	if level > LevelOpt {
		return nil, fmt.Errorf("neat: unknown level %d", level)
	}
	res := &Result{Level: level}
	if level >= LevelFlow {
		if err := cfg.Flow.Validate(); err != nil {
			return nil, err
		}
		res.Flows, res.FilteredFlows = filterFlows(fs.Flows, cfg.Flow.MinCard)
	}
	if level >= LevelOpt {
		if err := cfg.Refine.Validate(); err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res.Trace = p.newRunSpan("neat.merge", LevelOpt)
		if err := p.refine(ctx, res, cfg.Refine, fs, cfg.Flow.MinCard); err != nil {
			return nil, err
		}
		res.Trace.End()
	}
	p.recordRun(res)
	return res, nil
}
