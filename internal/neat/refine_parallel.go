package neat

import (
	"context"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/conc"
	"repro/internal/distcache"
	"repro/internal/fault"
	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/shortest"
)

// This file holds the batched ε-graph builder behind
// RefineConfig.Workers (Dijkstra kernel, finite ε); it is the builder
// every served /v1/clusters read runs. It collects the ≤2F distinct
// flow-endpoint junctions, pre-filters junction pairs with a Euclidean
// grid (sound because dE <= dN), probes the shared cache once per
// remaining pair, and runs ONE bounded one-to-many Dijkstra expansion
// per source junction that still misses a target — collapsing up to
// 4·F·(F−1)/2 point-to-point queries into at most 2F expansions. The
// expansions are sharded statically (conc.Chunk) over per-worker
// single-goroutine engines (see the shortest.Engine concurrency
// invariant), each writing its own slots of one distance table, and
// the predicate pass evaluates pairs in the serial scan's order, so for
// any worker count the adjacency — and hence the clustering — is
// byte-identical to the serial scan's.
//
// All bookkeeping is flat: junctions are indexed by position in a
// sorted slice, and every junction relation is a CSR table (one offsets
// slice, one values slice) sized by a counting pass, so a warm read —
// every distance a cache hit — allocates a handful of slices whatever
// the flow count.

// csr is a compressed sparse row table: row r holds val[off[r]:off[r+1]].
type csr struct {
	off []int32
	val []int32
}

func (t csr) row(r int32) []int32 { return t.val[t.off[r]:t.off[r+1]] }

// transpose returns the table whose row c lists, ascending, every row r
// of t that holds c, plus mirror: mirror[k] is the position in the
// transpose of the entry t.val[k].
func (t csr) transpose(cols int) (csr, []int32) {
	off := make([]int32, cols+1)
	for _, c := range t.val {
		off[c+1]++
	}
	for c := 0; c < cols; c++ {
		off[c+1] += off[c]
	}
	next := slices.Clone(off[:cols])
	val := make([]int32, len(t.val))
	mirror := make([]int32, len(t.val))
	for r := int32(0); int(r)+1 < len(t.off); r++ {
		for k := t.off[r]; k < t.off[r+1]; k++ {
			c := t.val[k]
			val[next[c]] = r
			mirror[k] = next[c]
			next[c]++
		}
	}
	return csr{off: off, val: val}, mirror
}

// junctionTable indexes the distinct endpoint junctions of a flow list.
type junctionTable struct {
	junc []roadnet.NodeID // distinct endpoint junctions, ascending
	ends [][2]int32       // per flow, its two endpoints' indices in junc
	at   csr              // row u: the flows ending at junc[u], ascending
}

func newJunctionTable(flows []*FlowCluster) junctionTable {
	ends := flowEndpoints(flows)
	junc := make([]roadnet.NodeID, 0, 2*len(ends))
	for _, e := range ends {
		junc = append(junc, e.a, e.b)
	}
	slices.Sort(junc)
	junc = slices.Compact(junc)
	jt := junctionTable{junc: junc, ends: make([][2]int32, len(ends))}
	// Row fi of byFlow holds flow fi's distinct endpoint junctions, so
	// its transpose lists the flows ending at each junction.
	byFlow := csr{off: make([]int32, len(ends)+1), val: make([]int32, 0, 2*len(ends))}
	for fi, e := range ends {
		a, _ := slices.BinarySearch(junc, e.a)
		b, _ := slices.BinarySearch(junc, e.b)
		jt.ends[fi] = [2]int32{int32(a), int32(b)}
		byFlow.val = append(byFlow.val, int32(a))
		if b != a {
			byFlow.val = append(byFlow.val, int32(b))
		}
		byFlow.off[fi+1] = int32(len(byFlow.val))
	}
	jt.at, _ = byFlow.transpose(len(junc))
	return jt
}

// junctionNeighbors returns, for every junction u, the junctions v ≠ u
// within Euclidean distance eps of it, split into the upper table (row
// u: every v > u, ascending) and the lower one (row u: every v < u),
// with lowerAt[k] the position of the lower entry k's mirror in upper.
// Junctions are bucketed into square cells of at least eps, so a
// radius query scans at most the 3×3 block around its cell; the
// comparison is inclusive, matching the ε-neighborhood predicate's
// d <= ε.
func junctionNeighbors(pts []geo.Point, eps float64) (upper, lower csr, lowerAt []int32) {
	bounds := geo.RectFromPoints(pts...)
	// Cell size tracks ε but is floored so a tiny ε on a huge map
	// cannot explode the cell count.
	cell := eps
	const maxCells = 1 << 20
	for (bounds.Width()/cell+2)*(bounds.Height()/cell+2) > maxCells {
		cell *= 2
	}
	nx := int(bounds.Width()/cell) + 1
	ny := int(bounds.Height()/cell) + 1
	cellOf := func(x, y float64) (int, int) {
		cx := min(max(int((x-bounds.Min.X)/cell), 0), nx-1)
		cy := min(max(int((y-bounds.Min.Y)/cell), 0), ny-1)
		return cx, cy
	}

	// Row u of byJunction holds u's cell, so its transpose lists each
	// cell's junctions, ascending.
	byJunction := csr{off: make([]int32, len(pts)+1), val: make([]int32, len(pts))}
	for u, p := range pts {
		cx, cy := cellOf(p.X, p.Y)
		byJunction.val[u] = int32(cy*nx + cx)
		byJunction.off[u+1] = int32(u + 1)
	}
	grid, _ := byJunction.transpose(nx * ny)

	lower.off = make([]int32, len(pts)+1)
	for u, p := range pts {
		x0, y0 := cellOf(p.X-eps, p.Y-eps)
		x1, y1 := cellOf(p.X+eps, p.Y+eps)
		for cy := y0; cy <= y1; cy++ {
			for cx := x0; cx <= x1; cx++ {
				for _, v := range grid.row(int32(cy*nx + cx)) {
					if int(v) >= u {
						break
					}
					if pts[v].Dist(p) <= eps {
						lower.val = append(lower.val, v)
					}
				}
			}
		}
		lower.off[u+1] = int32(len(lower.val))
	}
	upper, lowerAt = lower.transpose(len(pts))
	return upper, lower, lowerAt
}

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

// scattered reads junction v's slot of a row's scattered distances:
// +Inf unless this row stamped it, i.e. v is beyond Euclidean ε and
// hence beyond ε.
func scattered(d []float64, seen []int32, v, stamp int32) float64 {
	if seen[v] == stamp {
		return d[v]
	}
	return math.Inf(1)
}

// expansion is one bounded one-to-many Dijkstra: from junction src to
// the targets whose upper-table positions are miss[lo:hi].
type expansion struct {
	src    int32
	lo, hi int
}

// buildEpsGraphBatched is the batched one-to-many builder: grid
// pre-filter, one cache probe per within-ε junction pair, per-source
// expansions for the misses sharded across workers, then a sequential
// predicate pass over the candidate pairs in the serial scan's order.
func buildEpsGraphBatched(ctx context.Context, g *roadnet.Graph, flows []*FlowCluster, cfg RefineConfig, stats *RefineStats) ([][]int, error) {
	n := len(flows)
	stats.Pairs = n * (n - 1) / 2
	if n < 2 {
		return make([][]int, n), nil
	}
	eps := cfg.Epsilon
	jt := newJunctionTable(flows)
	pts := make([]geo.Point, len(jt.junc))
	for u, v := range jt.junc {
		pts[u] = g.Node(v).Pt
	}
	upper, lower, lowerAt := junctionNeighbors(pts, eps)

	// dist[k] is the network distance of the junction pair at upper
	// position k, +Inf when it exceeds ε. Consult the shared cache
	// first: a hit (finite, or +Inf meaning "beyond ε") fills the
	// slot, and a miss queues the target on its source's expansion,
	// so a fully cached read — the steady state of a parameter sweep
	// or a streaming re-merge — expands nothing.
	dist := make([]float64, len(upper.val))
	var miss []int32
	var targets []roadnet.NodeID
	var exps []expansion
	sources := 0
	for u := int32(0); int(u) < len(jt.junc); u++ {
		if upper.off[u] == upper.off[u+1] {
			continue
		}
		sources++
		lo := len(miss)
		for k := upper.off[u]; k < upper.off[u+1]; k++ {
			v := jt.junc[upper.val[k]]
			if cfg.Cache != nil {
				if d, ok := cfg.Cache.Lookup(distcache.Key(int32(jt.junc[u]), int32(v)), eps); ok {
					stats.CacheHits++
					dist[k] = d
					continue
				}
				stats.CacheMisses++
			}
			miss = append(miss, k)
			targets = append(targets, v)
		}
		if len(miss) > lo {
			exps = append(exps, expansion{src: u, lo: lo, hi: len(miss)})
		}
	}
	stats.Workers = conc.WorkersFor(cfg.Workers, sources)
	stats.Expansions = int64(len(exps))

	// Workers start only when something misses. Each expansion writes
	// its own slots of dist, so the table is the same whatever the
	// schedule.
	if len(exps) > 0 {
		spStats := &shortest.Stats{}
		workers := conc.WorkersFor(cfg.Workers, len(exps))
		var stop atomic.Bool
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo, hi := conc.Chunk(w, workers, len(exps))
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				eng := shortest.New(g, spStats)
				eng.SetFaults(cfg.Fault)
				for _, x := range exps[lo:hi] {
					if stop.Load() {
						return
					}
					if err := ctx.Err(); err != nil {
						stop.Store(true)
						return
					}
					if err := cfg.Fault.Inject(fault.SPQuery); err != nil {
						errs[w] = err
						stop.Store(true)
						return
					}
					out := eng.DistancesTo(jt.junc[x.src], shortest.Undirected, eps, targets[x.lo:x.hi])
					for i, d := range out {
						dist[miss[x.lo+i]] = d
					}
				}
			}(w, lo, hi)
		}
		wg.Wait()
		if err := firstBuildError(ctx, errs); err != nil {
			return nil, err
		}
		stats.SPQueries, stats.SettledNodes = spStats.Snapshot()
		// Write the computed rows back to the shared cache (nil-safe),
		// source by source: finite distances are exact, +Inf means
		// "farther than ε" — the bound class the next run's probes
		// will state.
		for _, x := range exps {
			from := int32(jt.junc[x.src])
			for i, k := range miss[x.lo:x.hi] {
				cfg.Cache.Store(distcache.Key(from, int32(targets[x.lo+i])), dist[k], eps)
			}
		}
	} else if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Predicate pass, row by row. For flow i with endpoint junctions
	// (a, b), scatter the distances from a and from b to every junction
	// within ε into dense per-junction slots (stamped with i+1, so no
	// clearing), and collect the candidate flows j > i ending at one of
	// those junctions — exactly the pairs the per-pair ELB check
	// admits, since some endpoint combination is within Euclidean ε.
	// Evaluating row i's candidates in ascending j appends edges in the
	// serial scan's i-major, j-ascending order.
	nj := len(jt.junc)
	fromA, fromB := make([]float64, nj), make([]float64, nj)
	seenA, seenB := make([]int32, nj), make([]int32, nj)
	picked := make([]int32, n)
	var near, row []int32
	var edges csr // row i: the j > i adjacent to i, ascending
	edges.off = make([]int32, n+1)
	cands := 0
	for i := int32(0); int(i) < n; i++ {
		stamp := i + 1
		near = near[:0]
		for side, u := range jt.ends[i] {
			d, seen := fromA, seenA
			if side == 1 {
				d, seen = fromB, seenB
			}
			d[u], seen[u] = 0, stamp
			for k := upper.off[u]; k < upper.off[u+1]; k++ {
				d[upper.val[k]], seen[upper.val[k]] = dist[k], stamp
			}
			for k := lower.off[u]; k < lower.off[u+1]; k++ {
				d[lower.val[k]], seen[lower.val[k]] = dist[lowerAt[k]], stamp
			}
			near = append(append(append(near, u), upper.row(u)...), lower.row(u)...)
		}
		row = row[:0]
		for _, v := range near {
			for _, j := range jt.at.row(v) {
				if j > i && picked[j] != stamp {
					picked[j] = stamp
					row = append(row, j)
				}
			}
		}
		slices.Sort(row)
		cands += len(row)
		for _, j := range row {
			e := jt.ends[j]
			dn := [2][2]float64{
				{scattered(fromA, seenA, e[0], stamp), scattered(fromA, seenA, e[1], stamp)},
				{scattered(fromB, seenB, e[0], stamp), scattered(fromB, seenB, e[1], stamp)},
			}
			if hausdorffWithin(dn, eps) {
				edges.val = append(edges.val, j)
			}
		}
		edges.off[i+1] = int32(len(edges.val))
	}
	stats.PrunedPairs = stats.Pairs - cands
	if cfg.UseELB {
		// The grid admits exactly the pairs the per-pair ELB check
		// would: minE <= ε iff some endpoint combo is within Euclidean
		// ε. Counting the complement keeps ELBPruned's semantics
		// identical to the serial scan's.
		stats.ELBPruned = stats.PrunedPairs
	}

	// The serial scan's appends, into rows sized by a degree count and
	// carved from one backing array.
	deg := make([]int, n)
	for i := int32(0); int(i) < n; i++ {
		deg[i] += len(edges.row(i))
		for _, j := range edges.row(i) {
			deg[j]++
		}
	}
	backing := make([]int, 2*len(edges.val))
	adjacency := make([][]int, n)
	for i, d := range deg {
		adjacency[i], backing = backing[:0:d], backing[d:]
	}
	for i := int32(0); int(i) < n; i++ {
		for _, j := range edges.row(i) {
			adjacency[i] = append(adjacency[i], int(j))
			adjacency[j] = append(adjacency[j], int(i))
		}
	}
	return adjacency, nil
}
