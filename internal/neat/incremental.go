package neat

import (
	"context"
	"fmt"
	"time"

	"repro/internal/roadnet"
	"repro/internal/shortest"
)

// EpsGraph is Phase 3's serial pairwise ε-graph scan, maintained across
// flow-set edits so a streaming caller re-merging a mostly unchanged
// standing flow set does not rebuild the graph from scratch. A
// from-scratch RefineFlows outside the batched builder is one Extend of
// an empty graph. The supported edits mirror the sliding window of
// internal/stream: evictions remove a prefix of the flow list (the
// oldest batches), and arrivals append to it.
//
// Output equivalence to a from-scratch rebuild is structural, not
// approximate. Extend appends neighbors while scanning pairs (i, j) in
// lexicographic order, so every adjacency row is ascending. Removing a
// prefix of k flows deletes rows 0..k-1, filters surviving rows'
// neighbors below k, and renumbers the rest — exactly the rows and
// entries a rebuild over the surviving flows would produce, in the same
// order. Extending by m flows evaluates exactly the pairs a rebuild
// would evaluate that involve a new flow, again in lexicographic order:
// old rows gain their new (≥ oldCount) neighbors after their existing
// (< oldCount) ones, and new rows are filled in ascending order —
// matching the rebuild's append order, where every pair (i, j) with
// i < j precedes every pair (j, j'). The DBSCAN pass (clusterEpsGraph)
// is shared verbatim with the batched RefineFlows, so clustering the
// maintained graph is byte-identical to clustering a rebuilt one.
//
// An EpsGraph is not safe for concurrent use. Pair evaluation is
// serial; attach a RefineConfig.Cache to make the incremental scan
// cheap (every surviving pair's distances hit the cache).
type EpsGraph struct {
	g         *roadnet.Graph
	cfg       RefineConfig
	flows     []*FlowCluster
	endpoints []flowEnds
	adjacency [][]int

	spStats *shortest.Stats
	eng     *shortest.Engine
	alt     *shortest.ALT
	ch      *shortest.CHQuery // the CH kernel's query state, beside eng
	// Snapshot cursor into spStats, so Extend can report per-call
	// deltas from the engine's cumulative counters.
	lastQueries, lastSettled int64
}

// NewEpsGraph creates an empty maintained ε-graph for the given graph
// and Phase 3 configuration. Kernel preprocessing (ALT landmarks, CH
// contraction) runs once here and is reused by every Extend.
func NewEpsGraph(g *roadnet.Graph, cfg RefineConfig) (*EpsGraph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	eg := &EpsGraph{g: g, cfg: cfg, spStats: &shortest.Stats{}}
	eg.eng = shortest.New(g, eg.spStats)
	var err error
	if cfg.Algo == SPALT {
		if eg.alt, err = shortest.NewALT(g, altLandmarkCount); err != nil {
			return nil, fmt.Errorf("neat: ALT preprocessing: %w", err)
		}
	}
	if cfg.Algo == SPCH {
		ch, err := shortest.NewCH(g)
		if err != nil {
			return nil, fmt.Errorf("neat: CH preprocessing: %w", err)
		}
		eg.ch = ch.NewQuery()
	}
	return eg, nil
}

// Len returns the number of flows currently in the graph.
func (eg *EpsGraph) Len() int { return len(eg.flows) }

// Flows returns the current flow list (shared slice; do not mutate).
func (eg *EpsGraph) Flows() []*FlowCluster { return eg.flows }

// RemovePrefix drops the first k flows and their adjacency rows,
// renumbering the survivors. Panics if k is out of range. The dropped
// rows' network distances stay valid in the shared cache — distances
// are a property of the road network, not of the flow set — so a flow
// re-entering later still hits.
func (eg *EpsGraph) RemovePrefix(k int) {
	if k < 0 || k > len(eg.flows) {
		panic(fmt.Sprintf("neat: RemovePrefix(%d) with %d flows", k, len(eg.flows)))
	}
	if k == 0 {
		return
	}
	eg.flows = append(eg.flows[:0], eg.flows[k:]...)
	eg.endpoints = append(eg.endpoints[:0], eg.endpoints[k:]...)
	rows := eg.adjacency[k:]
	for i, row := range rows {
		kept := row[:0]
		for _, j := range row {
			if j >= k {
				kept = append(kept, j-k)
			}
		}
		rows[i] = kept
	}
	eg.adjacency = append(eg.adjacency[:0], rows...)
}

// Extend appends the given flows and evaluates exactly the candidate
// pairs that involve at least one of them, in the lexicographic order
// a from-scratch scan of the whole list would use. It returns the work
// counters of this evaluation (Pairs counts only the newly evaluated
// pairs).
//
// On context cancellation or an injected shortest-path fault
// (RefineConfig.Fault) the extension rolls back completely — flow list,
// endpoints, and every adjacency edge added this call are undone — and
// the error is returned. A failed Extend therefore leaves the graph
// exactly as it was, so the caller may retry the same batch later.
func (eg *EpsGraph) Extend(ctx context.Context, flows []*FlowCluster) (RefineStats, error) {
	// Rebind the shared cache in case another graph used it since the
	// last call; a no-op when the scope is unchanged.
	eg.cfg.Cache.SetScope(cacheScope(eg.g, eg.cfg))

	old := len(eg.flows)
	eg.flows = append(eg.flows, flows...)
	eg.endpoints = append(eg.endpoints, flowEndpoints(flows)...)
	for len(eg.adjacency) < len(eg.flows) {
		eg.adjacency = append(eg.adjacency, nil)
	}

	start := time.Now()
	stats := RefineStats{}
	pe := newPairEvaluator(eg.g, eg.cfg, eg.endpoints, eg.eng, eg.alt, eg.ch)
	n := len(eg.flows)
	var abort error
scan:
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			abort = err
			break
		}
		jMin := i + 1
		if jMin < old {
			jMin = old
		}
		for j := jMin; j < n; j++ {
			stats.Pairs++
			if pe.withinEps(i, j) {
				eg.adjacency[i] = append(eg.adjacency[i], j)
				eg.adjacency[j] = append(eg.adjacency[j], i)
			}
			if pe.err != nil {
				abort = pe.err
				break scan
			}
		}
	}
	// Keep the engine-counter cursor current even on abort, so the next
	// call's delta does not double-count this call's work.
	q, settled := eg.spStats.Snapshot()
	stats.SPQueries += q - eg.lastQueries
	stats.SettledNodes = settled - eg.lastSettled
	eg.lastQueries, eg.lastSettled = q, settled
	if abort != nil {
		// Roll back: drop the appended rows wholesale, and strip the
		// new neighbors (all ≥ old, appended after any existing < old
		// ones) from the surviving rows.
		eg.flows = eg.flows[:old]
		eg.endpoints = eg.endpoints[:old]
		for i := 0; i < old; i++ {
			row := eg.adjacency[i]
			for len(row) > 0 && row[len(row)-1] >= old {
				row = row[:len(row)-1]
			}
			eg.adjacency[i] = row
		}
		eg.adjacency = eg.adjacency[:old]
		return stats, abort
	}
	stats.ELBPruned = pe.elbPruned
	stats.SPQueries += pe.spQueriesCH
	stats.CacheHits = pe.cacheHits
	stats.CacheMisses = pe.cacheMisses
	stats.GraphTime = time.Since(start)
	return stats, nil
}

// Cluster runs the deterministic DBSCAN pass over the maintained graph
// and returns the trajectory clusters plus the pass's wall time. The
// pass is the one every RefineFlows runs, on the identical adjacency —
// see the type comment for why the result is byte-identical.
func (eg *EpsGraph) Cluster() ([]*TrajectoryCluster, time.Duration, error) {
	if len(eg.flows) == 0 {
		return nil, 0, nil
	}
	start := time.Now()
	clusters, err := clusterEpsGraph(eg.g, eg.flows, eg.adjacency, eg.cfg)
	if err != nil {
		return nil, 0, err
	}
	return clusters, time.Since(start), nil
}
