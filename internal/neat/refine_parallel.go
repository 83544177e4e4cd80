package neat

import (
	"context"
	"fmt"
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
// every served /v1/clusters read runs. A build works in two steps and
// every read, built or not, ends in one filter.
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
// The predicate pass (junctionDists.pairs) finds the candidate flow
// pairs from that table and records, per pair, its closest endpoint
// pair's Euclidean distance and its modified Hausdorff aggregate: a
// pair table. The filter (pairTable.epsGraph) reads the ε-graph of a
// read off a pair table with two comparisons per pair, in the serial
// scan's order, so for any worker count the adjacency — and hence the
// clustering — is byte-identical to the serial scan's. RefineFlows
// runs the build and filters at its own ε; a flow set keeps the pair
// table of its loosest read, and a narrower read of the same set runs
// only the filter (FlowSet.epsGraph).
//
// All bookkeeping is flat: junctions are indexed by position in a
// sorted slice, and every junction or flow relation is a CSR table (one
// offsets slice, one values slice) sized by a counting pass or built
// in order, so a read allocates a handful of slices whatever the flow
// count.

// csr is a compressed sparse row table: row r holds val[off[r]:off[r+1]].
type csr struct {
	off []int32
	val []int32
}

func (t csr) row(r int32) []int32 { return t.val[t.off[r]:t.off[r+1]] }

// appendDoubling appends v to s, doubling s's capacity when it is full.
// Plain append grows a large slice by about a quarter at a time, so a
// table built one entry at a time would allocate several times its
// final size; doubling keeps that under twice.
func appendDoubling(s []int32, v int32) []int32 {
	if len(s) == cap(s) {
		s = slices.Grow(s, max(len(s), 256))
	}
	return append(s, v)
}

// transpose returns the table whose row c lists, ascending, every row r
// of t that holds c, and, when payload (one value per entry of t) is
// not nil, each moved entry's value in the same positions.
func (t csr) transpose(cols int, payload []float64) (csr, []float64) {
	off := make([]int32, cols+1)
	for _, c := range t.val {
		off[c+1]++
	}
	for c := 0; c < cols; c++ {
		off[c+1] += off[c]
	}
	next := slices.Clone(off[:cols])
	val := make([]int32, len(t.val))
	var moved []float64
	if payload != nil {
		moved = make([]float64, len(t.val))
	}
	for r := int32(0); int(r)+1 < len(t.off); r++ {
		for k := t.off[r]; k < t.off[r+1]; k++ {
			c := t.val[k]
			val[next[c]] = r
			if payload != nil {
				moved[next[c]] = payload[k]
			}
			next[c]++
		}
	}
	return csr{off: off, val: val}, moved
}

// junctionDists is the junction-distance table of one batched build:
// the distinct endpoint junctions of the flows it is built over, every
// pair of them within Euclidean ε, and each pair's network distance.
// It lives only as long as its build: the pair table derived from it is
// what a flow set keeps.
type junctionDists struct {
	junc  []roadnet.NodeID
	pts   []geo.Point // per junction, its position
	upper csr         // row u: every v > u within Euclidean eps of u
	dist  []float64   // per upper entry: the network distance, +Inf beyond eps
}

// pairTable holds the candidate flow pairs of one batched build over
// flows at ε eps: every pair (i, j), j > i, with some endpoint
// combination within Euclidean eps, in rows by i with j ascending. Per
// pair it keeps minE, the closest endpoint combination's Euclidean
// distance (the grid's own expression), and h, the modified Hausdorff
// aggregate of formula 5 over the four network distances, each +Inf
// beyond eps — 20 bytes a pair. A read at an ε′ <= eps over a
// subsequence of flows filters it (epsGraph): an endpoint pair the
// build saw as +Inf is beyond Euclidean eps, so beyond ε′ by network
// distance too (dE <= dN), and each min and the max in h compare with
// ε′ as the true distances would. It is immutable once built, so a
// flow set can keep one and share it across concurrent reads
// (FlowSet.epsGraph).
type pairTable struct {
	g       *roadnet.Graph
	eps     float64        // the build's ε
	minCard int            // the read's minCard, for a table a flow set keeps
	flows   []*FlowCluster // the build's flows, in order; a copy, since the read's slice is its caller's
	off     []int32        // row i: entries off[i]:off[i+1]
	col     []int32        // per entry: the flow j
	minE    []float64      // per entry: the closest endpoint pair's Euclidean distance
	h       []float64      // per entry: the pair's aggregate, +Inf when some endpoint is beyond eps
}

// answers reports whether t can serve a read on g over the flows kept
// at minCard, at ε eps: a flow set's flows at a larger minCard are a
// subsequence of those at a smaller one, so their candidate pairs
// within a narrower ε are all in t. Nil-safe.
func (t *pairTable) answers(g *roadnet.Graph, minCard int, eps float64) bool {
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
	grid, _ := byJunction.transpose(nx*ny, nil)

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
						upper.val = appendDoubling(upper.val, cellRow[i])
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
	t := &junctionDists{junc: junc, pts: pts, upper: upper, dist: make([]float64, len(upper.val))}

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

// scattered reads junction v's slot of a row's scattered distances:
// +Inf unless this row stamped it, i.e. v is beyond Euclidean ε and
// hence beyond ε.
func scattered(d []float64, seen []int32, v, stamp int32) float64 {
	if seen[v] == stamp {
		return d[v]
	}
	return math.Inf(1)
}

// pairs is the batched builder's predicate pass: it records, in a pair
// table over flows, every candidate flow pair with its minE and h, all
// read from t. The candidates of flow i are the flows j > i ending at a
// junction within Euclidean ε of one of i's endpoints — exactly the
// pairs the per-pair ELB check admits. Its Workers count is over the
// junction rows that hold a neighbour.
func (t *junctionDists) pairs(g *roadnet.Graph, flows []*FlowCluster, cfg RefineConfig, stats *RefineStats) *pairTable {
	n, nj := len(flows), len(t.junc)
	// pos[fi] holds flow fi's endpoint junctions' positions in the
	// table. Row fi of byFlow holds the distinct ones, so its transpose
	// lists the flows ending at each junction.
	pos := make([][2]int32, n)
	byFlow := csr{off: make([]int32, n+1), val: make([]int32, 0, 2*n)}
	for fi, f := range flows {
		front, back := f.Endpoints()
		a, _ := slices.BinarySearch(t.junc, front)
		b, _ := slices.BinarySearch(t.junc, back)
		pos[fi] = [2]int32{int32(a), int32(b)}
		byFlow.val = append(byFlow.val, int32(a))
		if b != a {
			byFlow.val = append(byFlow.val, int32(b))
		}
		byFlow.off[fi+1] = int32(len(byFlow.val))
	}
	at, _ := byFlow.transpose(nj, nil)
	lower, lowerDist := t.upper.transpose(nj, t.dist)
	sources := 0
	for u := range nj {
		if t.upper.off[u] < t.upper.off[u+1] {
			sources++
		}
	}
	stats.Workers = conc.WorkersFor(cfg.Workers, sources)

	// Row by row, the candidates: the flows j > i ending at i's
	// endpoint junctions or their neighbours, ascending.
	p := &pairTable{g: g, eps: cfg.Epsilon, flows: slices.Clone(flows), off: make([]int32, n+1)}
	picked := make([]int32, n)
	var near []int32
	for i := int32(0); int(i) < n; i++ {
		stamp, lo := i+1, len(p.col)
		near = near[:0]
		for _, u := range pos[i] {
			near = append(append(append(near, u), t.upper.row(u)...), lower.row(u)...)
		}
		for _, v := range near {
			for _, j := range at.row(v) {
				if j > i && picked[j] != stamp {
					picked[j] = stamp
					p.col = appendDoubling(p.col, j)
				}
			}
		}
		slices.Sort(p.col[lo:])
		p.off[i+1] = int32(len(p.col))
	}

	// Row by row again, each candidate's distances: scatter the network
	// distances from i's endpoints a and b to every junction within ε
	// into dense per-junction slots (stamped with i+1, so no clearing).
	fromA, fromB := make([]float64, nj), make([]float64, nj)
	seenA, seenB := make([]int32, nj), make([]int32, nj)
	p.minE, p.h = make([]float64, len(p.col)), make([]float64, len(p.col))
	for i := int32(0); int(i) < n; i++ {
		stamp := i + 1
		for side, u := range pos[i] {
			d, seen := fromA, seenA
			if side == 1 {
				d, seen = fromB, seenB
			}
			d[u], seen[u] = 0, stamp
			for k := t.upper.off[u]; k < t.upper.off[u+1]; k++ {
				d[t.upper.val[k]], seen[t.upper.val[k]] = t.dist[k], stamp
			}
			for k := lower.off[u]; k < lower.off[u+1]; k++ {
				d[lower.val[k]], seen[lower.val[k]] = lowerDist[k], stamp
			}
		}
		a, b := t.pts[pos[i][0]], t.pts[pos[i][1]]
		for k := p.off[i]; k < p.off[i+1]; k++ {
			e := pos[p.col[k]]
			p.h[k] = hausdorff([2][2]float64{
				{scattered(fromA, seenA, e[0], stamp), scattered(fromA, seenA, e[1], stamp)},
				{scattered(fromB, seenB, e[0], stamp), scattered(fromB, seenB, e[1], stamp)},
			})
			c, d := t.pts[e[0]], t.pts[e[1]]
			p.minE[k] = min(a.Dist(c), a.Dist(d), b.Dist(c), b.Dist(d))
		}
	}
	return p
}

// epsGraph is the filter every batched read takes its ε-graph from:
// the adjacency over flows, a subsequence of t's flows, at cfg's ε (at
// most t's). A pair is a candidate iff its minE <= ε, as the ELB check
// decides, and an edge iff it is a candidate with h <= ε. Rows run
// i-major with j ascending, so the edges are appended in the serial
// scan's order. It computes no distance and probes no cache.
func (t *pairTable) epsGraph(ctx context.Context, flows []*FlowCluster, cfg RefineConfig, stats *RefineStats) ([][]int, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// idx maps each table flow to its position among flows, -1 when the
	// read filtered it out.
	n := len(flows)
	idx := make([]int32, len(t.flows))
	r := 0
	for k, f := range t.flows {
		idx[k] = -1
		if r < n && flows[r] == f {
			idx[k], r = int32(r), r+1
		}
	}
	if r < n {
		return nil, fmt.Errorf("neat: flow %d is not in the pair table", r)
	}
	eps := cfg.Epsilon
	deg := make([]int32, n)
	cands, edges := 0, 0
	for i, fi := range idx {
		if fi < 0 {
			continue
		}
		for k := t.off[i]; k < t.off[i+1]; k++ {
			if fj := idx[t.col[k]]; fj >= 0 && t.minE[k] <= eps {
				cands++
				if t.h[k] <= eps {
					deg[fi]++
					deg[fj]++
					edges++
				}
			}
		}
	}
	stats.Pairs = n * (n - 1) / 2
	stats.PrunedPairs = stats.Pairs - cands
	if cfg.UseELB {
		// Counting the complement of the candidates keeps ELBPruned's
		// semantics identical to the serial scan's.
		stats.ELBPruned = stats.PrunedPairs
	}

	// The serial scan's appends, into rows sized by the degree count
	// and carved from one backing array.
	backing := make([]int, 2*edges)
	adjacency := make([][]int, n)
	for i, d := range deg {
		adjacency[i], backing = backing[:0:d], backing[d:]
	}
	for i, fi := range idx {
		if fi < 0 {
			continue
		}
		for k := t.off[i]; k < t.off[i+1]; k++ {
			if fj := idx[t.col[k]]; fj >= 0 && t.minE[k] <= eps && t.h[k] <= eps {
				adjacency[fi] = append(adjacency[fi], int(fj))
				adjacency[fj] = append(adjacency[fj], int(fi))
			}
		}
	}
	return adjacency, nil
}

// buildPairTable is a batched build: the junction-table step, then the
// predicate pass over that table.
func buildPairTable(ctx context.Context, g *roadnet.Graph, flows []*FlowCluster, cfg RefineConfig, stats *RefineStats) (*pairTable, error) {
	t, err := buildJunctionDists(ctx, g, flows, cfg, stats)
	if err != nil {
		return nil, err
	}
	return t.pairs(g, flows, cfg, stats), nil
}

// buildEpsGraphBatched is the batched builder RefineFlows runs: a
// build, then the filter at the build's own ε.
func buildEpsGraphBatched(ctx context.Context, g *roadnet.Graph, flows []*FlowCluster, cfg RefineConfig, stats *RefineStats) ([][]int, error) {
	t, err := buildPairTable(ctx, g, flows, cfg, stats)
	if err != nil {
		return nil, err
	}
	return t.epsGraph(ctx, flows, cfg, stats)
}
