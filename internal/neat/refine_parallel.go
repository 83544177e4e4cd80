package neat

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/conc"
	"repro/internal/distcache"
	"repro/internal/fault"
	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/shortest"
	"repro/internal/spatial"
)

// This file holds the batched ε-graph builder behind
// RefineConfig.Workers (Dijkstra kernel, finite ε). It collects the ≤2F
// distinct flow-endpoint junctions, pre-filters candidate pairs with a
// Euclidean point grid (sound because dE <= dN), and runs ONE bounded
// one-to-many Dijkstra expansion per remaining source junction —
// collapsing up to 4·F·(F−1)/2 point-to-point queries into at most 2F
// expansions. The expansions are sharded statically (conc.Chunk) over
// per-worker single-goroutine engines (see the shortest.Engine
// concurrency invariant) and merged in a fixed order, so for any worker
// count the adjacency — and hence the clustering — is byte-identical to
// the serial scan's.

// firstBuildError picks the error the batched builder reports, making
// the choice deterministic regardless of which worker tripped first in
// wall-clock time: cancellation wins (the caller asked to stop), then
// the lowest-indexed worker's error.
func firstBuildError(ctx context.Context, errs []error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// buildEpsGraphBatched is the batched one-to-many builder (tentpole of
// the ε-graph construction): grid pre-filter, per-source expansions
// sharded across workers, deterministic merge, then a cheap sequential
// predicate pass over the candidate pairs.
func buildEpsGraphBatched(ctx context.Context, g *roadnet.Graph, flows []*FlowCluster, cfg RefineConfig, stats *RefineStats) ([][]int, error) {
	n := len(flows)
	stats.Pairs = n * (n - 1) / 2
	adjacency := make([][]int, n)
	if n < 2 {
		return adjacency, nil
	}
	eps := cfg.Epsilon
	endpoints := flowEndpoints(flows)

	// Distinct endpoint junctions, ascending; flowsAt maps each one
	// back to the flows that end there.
	jIdx := make(map[roadnet.NodeID]int)
	var junc []roadnet.NodeID
	for _, e := range endpoints {
		for _, u := range [2]roadnet.NodeID{e.a, e.b} {
			if _, ok := jIdx[u]; !ok {
				jIdx[u] = 0 // placeholder; renumbered after sorting
				junc = append(junc, u)
			}
		}
	}
	sort.Slice(junc, func(a, b int) bool { return junc[a] < junc[b] })
	for i, u := range junc {
		jIdx[u] = i
	}
	flowsAt := make([][]int32, len(junc))
	for fi, e := range endpoints {
		ja := jIdx[e.a]
		flowsAt[ja] = append(flowsAt[ja], int32(fi))
		if e.b != e.a {
			jb := jIdx[e.b]
			flowsAt[jb] = append(flowsAt[jb], int32(fi))
		}
	}

	// Euclidean pre-filter: index the junction points in a uniform
	// grid and keep only flow pairs with at least one endpoint combo
	// within Euclidean ε (dE <= dN, so the rest can never satisfy the
	// predicate). Cell size tracks ε but is floored so a tiny ε on a
	// huge map cannot explode the cell count.
	pts := make([]geo.Point, len(junc))
	var bounds geo.Rect
	for i, u := range junc {
		pts[i] = g.Node(u).Pt
	}
	bounds = geo.RectFromPoints(pts...)
	cell := eps
	const maxCells = 1 << 20
	for (bounds.Width()/cell+2)*(bounds.Height()/cell+2) > maxCells {
		cell *= 2
	}
	pg, err := spatial.NewPointGrid(pts, cell)
	if err != nil {
		return nil, fmt.Errorf("neat: batched refinement grid: %w", err)
	}

	// Candidate flow pairs, encoded i*n+j (i < j) for a deterministic
	// order; neighbors of each junction feed both the pair set and the
	// per-source target lists.
	candSet := make(map[int64]struct{})
	needed := make(map[roadnet.NodeID]map[roadnet.NodeID]struct{}) // source -> target junctions, source < target
	for a := range junc {
		for _, b := range pg.Within(pts[a], eps) {
			if b < a {
				continue
			}
			if a != b {
				u, v := junc[a], junc[b]
				if u > v {
					u, v = v, u
				}
				m := needed[u]
				if m == nil {
					m = make(map[roadnet.NodeID]struct{})
					needed[u] = m
				}
				m[v] = struct{}{}
			}
			for _, fi := range flowsAt[a] {
				for _, fj := range flowsAt[b] {
					i, j := int(fi), int(fj)
					if i == j {
						continue
					}
					if i > j {
						i, j = j, i
					}
					candSet[int64(i)*int64(n)+int64(j)] = struct{}{}
				}
			}
		}
	}
	cands := make([]int64, 0, len(candSet))
	for k := range candSet {
		cands = append(cands, k)
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a] < cands[b] })
	stats.PrunedPairs = stats.Pairs - len(cands)
	if cfg.UseELB {
		// The grid admits exactly the pairs the per-pair ELB check
		// would: minE <= ε iff some endpoint combo is within Euclidean
		// ε. Counting the complement keeps ELBPruned's semantics
		// identical to the serial scan's.
		stats.ELBPruned = stats.PrunedPairs
	}

	// One bounded one-to-many expansion per source junction, sharded
	// across per-worker engines; results land in per-source slots, so
	// the merge below is scheduling-independent.
	sources := make([]roadnet.NodeID, 0, len(needed))
	for u := range needed {
		sources = append(sources, u)
	}
	sort.Slice(sources, func(a, b int) bool { return sources[a] < sources[b] })
	targetsOf := make([][]roadnet.NodeID, len(sources))
	for si, u := range sources {
		ts := make([]roadnet.NodeID, 0, len(needed[u]))
		for v := range needed[u] {
			ts = append(ts, v)
		}
		sort.Slice(ts, func(a, b int) bool { return ts[a] < ts[b] })
		targetsOf[si] = ts
	}
	// Consult the shared cache before scheduling any expansion: a hit
	// removes that target from its source's list, and a source whose
	// list empties skips its expansion entirely. A finite hit lands in
	// the distance table; a +Inf hit means "beyond ε", which the lookup
	// below already encodes as absence. In steady state (streaming
	// ingest re-merging a mostly unchanged flow set) every pair hits
	// and the expansion stage vanishes.
	dist := make(map[[2]roadnet.NodeID]float64)
	if cfg.Cache != nil {
		for si, u := range sources {
			kept := targetsOf[si][:0]
			for _, v := range targetsOf[si] {
				if d, ok := cfg.Cache.Lookup(distcache.Key(int32(u), int32(v)), eps); ok {
					stats.CacheHits++
					if !math.IsInf(d, 1) {
						dist[[2]roadnet.NodeID{u, v}] = d
					}
					continue
				}
				stats.CacheMisses++
				kept = append(kept, v)
			}
			targetsOf[si] = kept
		}
	}

	results := make([][]float64, len(sources))
	workers := conc.WorkersFor(cfg.Workers, len(sources))
	stats.Workers = workers
	for _, ts := range targetsOf {
		if len(ts) > 0 {
			stats.Expansions++
		}
	}
	spStats := &shortest.Stats{}
	var stop atomic.Bool
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := conc.Chunk(w, workers, len(sources))
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			eng := shortest.New(g, spStats)
			eng.SetFaults(cfg.Fault)
			for si := lo; si < hi; si++ {
				if stop.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					stop.Store(true)
					return
				}
				if len(targetsOf[si]) == 0 {
					continue
				}
				if err := cfg.Fault.Inject(fault.SPQuery); err != nil {
					errs[w] = err
					stop.Store(true)
					return
				}
				results[si] = eng.DistancesTo(sources[si], shortest.Undirected, eps, targetsOf[si])
			}
		}(w, lo, hi)
	}
	wg.Wait()
	if err := firstBuildError(ctx, errs); err != nil {
		return nil, err
	}
	stats.SPQueries, stats.SettledNodes = spStats.Snapshot()

	// Merge the per-worker partial tables into the distance lookup,
	// writing each computed row back to the shared cache (nil-safe):
	// finite distances are exact, +Inf means "farther than ε" — the
	// bound class the next run's probes will state.
	for si, u := range sources {
		for ti, v := range targetsOf[si] {
			d := results[si][ti]
			cfg.Cache.Store(distcache.Key(int32(u), int32(v)), d, eps)
			if !math.IsInf(d, 1) {
				dist[[2]roadnet.NodeID{u, v}] = d
			}
		}
	}
	lookup := func(u, v roadnet.NodeID) float64 {
		if u == v {
			return 0
		}
		if u > v {
			u, v = v, u
		}
		if d, ok := dist[[2]roadnet.NodeID{u, v}]; ok {
			return d
		}
		return math.Inf(1) // beyond ε (or beyond the Euclidean filter)
	}

	// Sequential predicate pass in canonical pair order: identical
	// adjacency append order to the serial scan.
	for _, key := range cands {
		i, j := int(key/int64(n)), int(key%int64(n))
		ei, ej := endpoints[i], endpoints[j]
		pi := [2]roadnet.NodeID{ei.a, ei.b}
		pj := [2]roadnet.NodeID{ej.a, ej.b}
		var dn [2][2]float64
		for ui, u := range pi {
			for vi, v := range pj {
				dn[ui][vi] = lookup(u, v)
			}
		}
		if hausdorffWithin(dn, eps) {
			adjacency[i] = append(adjacency[i], j)
			adjacency[j] = append(adjacency[j], i)
		}
	}
	return adjacency, nil
}
