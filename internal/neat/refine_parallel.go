package neat

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
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
// every served /v1/clusters read runs. It works in two steps.
//
// The junction-table step (buildJunctionDists) collects the ≤2F
// distinct flow-endpoint junctions, pre-filters junction pairs with a
// Euclidean grid (sound because dE <= dN), probes the shared cache once
// per remaining pair, and runs ONE bounded one-to-many Dijkstra
// expansion per source junction that still misses a target —
// collapsing up to 4·F·(F−1)/2 point-to-point queries into at most 2F
// expansions. The expansions are sharded statically (conc.Chunk) over
// per-worker single-goroutine engines (see the shortest.Engine
// concurrency invariant), each writing its own slots of one distance
// table.
//
// The predicate pass (junctionDists.epsGraph) evaluates the candidate
// flow pairs in the serial scan's order from that table alone, so for
// any worker count the adjacency — and hence the clustering — is
// byte-identical to the serial scan's. RefineFlows runs the two steps
// back to back; a flow set keeps the table of its loosest read, and a
// narrower read of the same set runs only the pass (FlowSet.epsGraph).
//
// All bookkeeping is flat: junctions are indexed by position in a
// sorted slice, and every junction relation is a CSR table (one offsets
// slice, one values slice) sized by a counting pass, so a warm read —
// every distance a cache hit or a table entry — allocates a handful of
// slices whatever the flow count.

// csr is a compressed sparse row table: row r holds val[off[r]:off[r+1]].
type csr struct {
	off []int32
	val []int32
}

func (t csr) row(r int32) []int32 { return t.val[t.off[r]:t.off[r+1]] }

// transpose returns the table whose row c lists, ascending, every row r
// of t that holds c.
func (t csr) transpose(cols int) csr {
	off := make([]int32, cols+1)
	for _, c := range t.val {
		off[c+1]++
	}
	for c := 0; c < cols; c++ {
		off[c+1] += off[c]
	}
	next := slices.Clone(off[:cols])
	val := make([]int32, len(t.val))
	for r := int32(0); int(r)+1 < len(t.off); r++ {
		for _, c := range t.row(r) {
			val[next[c]] = r
			next[c]++
		}
	}
	return csr{off: off, val: val}
}

// junctionDists is the junction-distance table of one batched build:
// the distinct endpoint junctions of the flows it was built over,
// every pair of them within Euclidean ε, and each pair's network
// distance. It is immutable once built, so a flow set can keep one and
// share it across concurrent reads (FlowSet.epsGraph). A read over a
// subset of those flows at an ε no wider than the table's filters it:
// dE and dN do not depend on which flows take part, and a network
// distance beyond the table's ε (+Inf) is beyond any narrower ε too.
type junctionDists struct {
	g       *roadnet.Graph
	eps     float64 // the build's ε
	minCard int     // the read's minCard, for a table a flow set keeps
	junc    []roadnet.NodeID
	pts     []geo.Point // per junction, its position
	upper   csr         // row u: every v > u within Euclidean eps of u
	dist    []float64   // per upper entry: the network distance, +Inf beyond eps
	// eucl, per upper entry, is the pair's Euclidean distance once
	// sortedByDist has ordered each row by it, ties by junction, so
	// the entries within a narrower ε are a prefix of the row. A
	// build's rows run in grid order and carry none: at the build's
	// own ε every entry qualifies.
	eucl []float64
}

// answers reports whether t can serve a read on g over the flows kept
// at minCard, at ε eps: a flow set's flows at a larger minCard are a
// subset of those at a smaller one, so their junctions and the pairs
// within a narrower ε are all in t. Nil-safe.
func (t *junctionDists) answers(g *roadnet.Graph, minCard int, eps float64) bool {
	return t != nil && t.g == g && minCard >= t.minCard && eps <= t.eps
}

// junctionNeighbors returns, for every junction u, the junctions v > u
// within Euclidean distance eps of it, in grid order. Junctions are
// bucketed into square cells of at least eps, so a radius query scans
// at most the 3×3 block around its cell; the comparison is inclusive,
// matching the ε-neighborhood predicate's d <= ε.
func junctionNeighbors(pts []geo.Point, eps float64) (upper csr) {
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
	grid := byJunction.transpose(nx * ny)

	// Each junction's cell rows are ascending, so walking them from the
	// end visits exactly its neighbours v > u.
	upper.off = make([]int32, len(pts)+1)
	for u, p := range pts {
		x0, y0 := cellOf(p.X-eps, p.Y-eps)
		x1, y1 := cellOf(p.X+eps, p.Y+eps)
		for cy := y0; cy <= y1; cy++ {
			for cx := x0; cx <= x1; cx++ {
				cellRow := grid.row(int32(cy*nx + cx))
				for i := len(cellRow) - 1; i >= 0 && int(cellRow[i]) > u; i-- {
					if pts[cellRow[i]].Dist(p) <= eps {
						upper.val = append(upper.val, cellRow[i])
					}
				}
			}
		}
		upper.off[u+1] = int32(len(upper.val))
	}
	return upper
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

// expansion is one bounded one-to-many Dijkstra: from junction src to
// the targets at miss[lo:hi].
type expansion struct {
	src    int32
	lo, hi int
}

// buildJunctionDists is the batched builder's junction-table step:
// the distinct endpoint junctions of flows, the grid pre-filter, one
// cache probe per within-ε junction pair, and one bounded
// one-to-many expansion per source junction that still misses a
// target, sharded across workers.
func buildJunctionDists(ctx context.Context, g *roadnet.Graph, flows []*FlowCluster, cfg RefineConfig, stats *RefineStats) (*junctionDists, error) {
	eps := cfg.Epsilon
	junc := make([]roadnet.NodeID, 0, 2*len(flows))
	for _, f := range flows {
		a, b := f.Endpoints()
		junc = append(junc, a, b)
	}
	slices.Sort(junc)
	junc = slices.Compact(junc)
	pts := make([]geo.Point, len(junc))
	for u, v := range junc {
		pts[u] = g.Node(v).Pt
	}
	upper := junctionNeighbors(pts, eps)
	t := &junctionDists{g: g, eps: eps, junc: junc, pts: pts, upper: upper, dist: make([]float64, len(upper.val))}

	// Consult the shared cache first: a hit (finite, or +Inf meaning
	// "beyond ε") fills the pair's slot, and a miss queues the target
	// on its source's expansion, so a fully cached build expands
	// nothing.
	var miss []int32
	var targets []roadnet.NodeID
	var exps []expansion
	for u := int32(0); int(u) < len(junc); u++ {
		lo := len(miss)
		for k := upper.off[u]; k < upper.off[u+1]; k++ {
			v := junc[upper.val[k]]
			if cfg.Cache != nil {
				if d, ok := cfg.Cache.Lookup(distcache.Key(int32(junc[u]), int32(v)), eps); ok {
					stats.CacheHits++
					t.dist[k] = d
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
	stats.Expansions = int64(len(exps))
	if len(exps) == 0 {
		return t, nil
	}

	// Workers start only when something misses. Each expansion writes
	// its own range of got, so the table is the same whatever the
	// schedule.
	got := make([]float64, len(miss))
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
				eng.DistancesTo(got[x.lo:x.hi], junc[x.src], shortest.Undirected, eps, targets[x.lo:x.hi])
			}
		}(w, lo, hi)
	}
	wg.Wait()
	if err := firstBuildError(ctx, errs); err != nil {
		return nil, err
	}
	stats.SPQueries, stats.SettledNodes = spStats.Snapshot()
	// Fill the table and write the computed rows back to the shared
	// cache (nil-safe), source by source: finite distances are exact,
	// +Inf means "farther than ε" — the bound class the next build's
	// probes will state.
	for _, x := range exps {
		from := int32(junc[x.src])
		for i := x.lo; i < x.hi; i++ {
			t.dist[miss[i]] = got[i]
			cfg.Cache.Store(distcache.Key(from, int32(targets[i])), got[i], eps)
		}
	}
	return t, nil
}

// sortedByDist returns a copy of t whose rows run by Euclidean
// distance, ties by junction, with those distances in eucl; each entry
// keeps its network distance. A distance is the grid scan's own
// expression on the same points, so it is the float the scan tested.
func (t *junctionDists) sortedByDist() *junctionDists {
	eucl := make([]float64, len(t.upper.val))
	order := make([]int32, len(t.upper.val))
	for u := range t.junc {
		for k := t.upper.off[u]; k < t.upper.off[u+1]; k++ {
			eucl[k], order[k] = t.pts[t.upper.val[k]].Dist(t.pts[u]), k
		}
		slices.SortFunc(order[t.upper.off[u]:t.upper.off[u+1]], func(a, b int32) int {
			if c := cmp.Compare(eucl[a], eucl[b]); c != 0 {
				return c
			}
			return cmp.Compare(t.upper.val[a], t.upper.val[b])
		})
	}
	s := *t
	s.upper.val = make([]int32, len(order))
	s.eucl, s.dist = make([]float64, len(order)), make([]float64, len(order))
	for k, from := range order {
		s.upper.val[k], s.eucl[k], s.dist[k] = t.upper.val[from], eucl[from], t.dist[from]
	}
	return &s
}

// within returns a read's view of t at ε eps, the rows a build over
// the read's own flows would scan. For each junction u ending some
// flow of the read (ends), its upper row is the prefix of t's row u
// within Euclidean eps, ending at cut[u]: the whole row at t's own ε,
// and otherwise the entries of a row by distance that pass the grid's
// test on the same floats (FlowSet.epsGraph orders the rows first). Lower row v lists the
// u < v whose prefix holds v, each with the pair's network distance. A
// junction no flow of the read ends at has no flow to pair, so it may
// stay in a row. sources counts the rows that hold one ending a flow
// of the read.
func (t *junctionDists) within(ends []bool, eps float64) (cut []int32, lower csr, lowerDist []float64, sources int) {
	nj := len(t.junc)
	cut = make([]int32, nj)
	lower.off = make([]int32, nj+1)
	for u := range nj {
		if !ends[u] {
			continue
		}
		cut[u] = t.upper.off[u+1]
		if eps < t.eps {
			d := t.eucl[t.upper.off[u]:cut[u]]
			cut[u] = t.upper.off[u] + int32(sort.Search(len(d), func(i int) bool { return d[i] > eps }))
		}
		row := t.upper.val[t.upper.off[u]:cut[u]]
		for _, v := range row {
			lower.off[v+1]++
		}
		if slices.ContainsFunc(row, func(v int32) bool { return ends[v] }) {
			sources++
		}
	}
	for v := range nj {
		lower.off[v+1] += lower.off[v]
	}
	lower.val, lowerDist = make([]int32, lower.off[nj]), make([]float64, lower.off[nj])
	next := slices.Clone(lower.off[:nj])
	for u := range nj {
		if !ends[u] {
			continue
		}
		for k := t.upper.off[u]; k < cut[u]; k++ {
			v := t.upper.val[k]
			lower.val[next[v]], lowerDist[next[v]] = int32(u), t.dist[k]
			next[v]++
		}
	}
	return cut, lower, lowerDist, sources
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

// epsGraph is the batched builder's predicate pass over t: it maps the
// flows' endpoints into the table, keeps the pairs within cfg's ε, and
// evaluates the candidate flow pairs in the serial scan's order. It
// reads every distance from t, so it runs no grid scan, probes no
// cache and computes no shortest path.
func (t *junctionDists) epsGraph(ctx context.Context, flows []*FlowCluster, cfg RefineConfig, stats *RefineStats) ([][]int, error) {
	n := len(flows)
	stats.Pairs = n * (n - 1) / 2
	eps := cfg.Epsilon
	nj := len(t.junc)
	// pos[fi] holds flow fi's endpoint junctions' positions in the
	// table. Row fi of byFlow holds the distinct ones, so its transpose
	// lists the flows ending at each junction.
	pos := make([][2]int32, n)
	byFlow := csr{off: make([]int32, n+1), val: make([]int32, 0, 2*n)}
	for fi, f := range flows {
		front, back := f.Endpoints()
		a, okA := slices.BinarySearch(t.junc, front)
		b, okB := slices.BinarySearch(t.junc, back)
		if !okA || !okB {
			return nil, fmt.Errorf("neat: flow %d ends outside the junction table", fi)
		}
		pos[fi] = [2]int32{int32(a), int32(b)}
		byFlow.val = append(byFlow.val, int32(a))
		if b != a {
			byFlow.val = append(byFlow.val, int32(b))
		}
		byFlow.off[fi+1] = int32(len(byFlow.val))
	}
	at := byFlow.transpose(nj)
	ends := make([]bool, nj)
	for u := range ends {
		ends[u] = at.off[u] < at.off[u+1]
	}
	cut, lower, lowerDist, sources := t.within(ends, eps)
	stats.Workers = conc.WorkersFor(cfg.Workers, sources)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Row by row: for flow i with endpoint junctions (a, b), scatter
	// the distances from a and from b to every junction within ε into
	// dense per-junction slots (stamped with i+1, so no clearing), and
	// collect the candidate flows j > i ending at one of those
	// junctions — exactly the pairs the per-pair ELB check admits,
	// since some endpoint combination is within Euclidean ε.
	// Evaluating row i's candidates in ascending j appends edges in the
	// serial scan's i-major, j-ascending order.
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
		for side, u := range pos[i] {
			d, seen := fromA, seenA
			if side == 1 {
				d, seen = fromB, seenB
			}
			d[u], seen[u] = 0, stamp
			for k := t.upper.off[u]; k < cut[u]; k++ {
				d[t.upper.val[k]], seen[t.upper.val[k]] = t.dist[k], stamp
			}
			for k := lower.off[u]; k < lower.off[u+1]; k++ {
				d[lower.val[k]], seen[lower.val[k]] = lowerDist[k], stamp
			}
			near = append(append(append(near, u), t.upper.val[t.upper.off[u]:cut[u]]...), lower.row(u)...)
		}
		row = row[:0]
		for _, v := range near {
			for _, j := range at.row(v) {
				if j > i && picked[j] != stamp {
					picked[j] = stamp
					row = append(row, j)
				}
			}
		}
		slices.Sort(row)
		cands += len(row)
		for _, j := range row {
			e := pos[j]
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

// buildEpsGraphBatched is the batched builder RefineFlows runs: the
// junction-table step, then the predicate pass over that table.
func buildEpsGraphBatched(ctx context.Context, g *roadnet.Graph, flows []*FlowCluster, cfg RefineConfig, stats *RefineStats) ([][]int, error) {
	t, err := buildJunctionDists(ctx, g, flows, cfg, stats)
	if err != nil {
		return nil, err
	}
	return t.epsGraph(ctx, flows, cfg, stats)
}
