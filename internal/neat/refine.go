package neat

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/dbscan"
	"repro/internal/distcache"
	"repro/internal/fault"
	"repro/internal/roadnet"
	"repro/internal/shortest"
	"repro/internal/traj"
)

// SPAlgo selects the shortest-path kernel used by Phase 3's network
// distance computations. The paper uses Dijkstra's network expansion;
// the alternatives are ablations.
type SPAlgo uint8

const (
	// SPDijkstra is plain network expansion (the paper's kernel).
	SPDijkstra SPAlgo = iota
	// SPAStar is A* with the Euclidean heuristic.
	SPAStar
	// SPBidirectional is bidirectional Dijkstra.
	SPBidirectional
	// SPALT is A* with precomputed landmark lower bounds (an extension
	// beyond the paper). The landmark preprocessing runs inside Phase 3
	// and is charged to it.
	SPALT
	// SPCH answers queries from a contraction hierarchy (an extension
	// beyond the paper). Preprocessing runs inside Phase 3 and is
	// charged to it; it pays off when the flow count — and hence the
	// query count — is large.
	SPCH
)

// altLandmarkCount is the number of ALT landmarks Phase 3 precomputes
// when SPALT is selected; a handful suffices on road networks.
const altLandmarkCount = 8

// String implements fmt.Stringer.
func (a SPAlgo) String() string {
	switch a {
	case SPDijkstra:
		return "dijkstra"
	case SPAStar:
		return "astar"
	case SPBidirectional:
		return "bidirectional"
	case SPALT:
		return "alt"
	case SPCH:
		return "ch"
	default:
		return fmt.Sprintf("spalgo(%d)", uint8(a))
	}
}

// RefineConfig parameterizes Phase 3.
type RefineConfig struct {
	// Epsilon is the network distance threshold ε in meters under which
	// two flow clusters' representative routes are considered close
	// (the paper's Fig 3 uses 6500 m on ATL).
	Epsilon float64
	// MinPts is DBSCAN's core threshold. The paper's modification (3)
	// sets no minimum cardinality, i.e. MinPts = 1; the zero value maps
	// to 1.
	MinPts int
	// UseELB enables the Euclidean lower-bound filter (§III-C3) that
	// skips the four shortest-path computations for pairs whose
	// endpoint Euclidean distances already exceed ε.
	UseELB bool
	// Bounded prunes each shortest-path expansion at ε: for the
	// ε-neighborhood predicate only reachability within ε matters, so
	// the expansion never needs to settle nodes farther than ε.
	// Disable to reproduce the paper's opt-NEAT-Dijkstra curve, which
	// computes complete shortest paths.
	Bounded bool
	// Cache is an optional shared distance cache consulted before any
	// shortest-path computation and updated with every result. It
	// persists across runs (streaming ingests, server requests) and is
	// shared by all workers; it is scoped by (graph fingerprint,
	// kernel) and bound-classed by ε, so entries are
	// correct across configurations — see internal/distcache. Output is
	// byte-identical with or without it; only the work counters
	// (SPQueries, SettledNodes, Expansions) shrink.
	Cache *distcache.Cache
	// Fault is an optional fault injector (internal/fault). When set,
	// every shortest-path computation first consults it: an injected
	// error aborts the refinement with a fault.*Error (propagated to
	// the caller, partial work discarded), and the engines consult it
	// for injected latency. Nil — the default — injects nothing, and a
	// disabled injector is equally free; clustering output is identical
	// whenever no fault fires.
	Fault *fault.Injector
	// Algo selects the shortest-path kernel (ablation; the paper uses
	// Dijkstra). Bounded is only honored by SPDijkstra.
	Algo SPAlgo
	// Workers selects the batched ε-graph builder (an extension beyond
	// the paper). 0 — the default — runs the serial pairwise scan
	// exactly as §III-C describes, preserving the paper's per-pair
	// query accounting; neatcli without -workers, the experiments and
	// the streaming clusterer's EpsGraph run it. Any other value, with
	// the Dijkstra kernel and a finite ε, re-batches the scan: a
	// Euclidean grid pre-filter picks the junction pairs that can be
	// within ε, the shared cache is probed once per pair, and the
	// misses run as bounded one-to-many expansions — one per distinct
	// flow-endpoint junction — sharded over that many worker goroutines
	// (negative selects GOMAXPROCS), each owning its single-goroutine
	// shortest-path engine; Bounded is then implied and ignored. The
	// server runs it on every /v1/clusters miss (Workers -1). The other
	// kernels, and an infinite ε, run the serial scan whatever Workers
	// says. Clustering output is identical to the serial scan in every
	// case (the batched builder merges deterministically); only the
	// work accounting differs — see RefineStats.
	Workers int
}

func (c RefineConfig) withDefaults() RefineConfig {
	if c.MinPts <= 0 {
		c.MinPts = 1
	}
	return c
}

// Validate reports configuration errors.
func (c RefineConfig) Validate() error {
	if !(c.Epsilon > 0) { // also rejects NaN
		return fmt.Errorf("neat: refinement ε must be positive, got %g", c.Epsilon)
	}
	return nil
}

// RefineStats quantifies the work Phase 3 performed; Fig 7 is built
// from these counters. A batched read that a flow set's kept pair table
// answers (FromTable) does no distance work: it reports 0 SPQueries,
// SettledNodes, Expansions, CacheHits and CacheMisses, while Pairs,
// ELBPruned and PrunedPairs read as for a build.
type RefineStats struct {
	// Pairs is the number of flow-cluster pairs examined.
	Pairs int
	// ELBPruned is the number of pairs eliminated by the Euclidean
	// lower bound without any shortest-path computation. Identical
	// across the serial and batched builders for a given config.
	ELBPruned int
	// SPQueries is the number of shortest-path computations issued
	// (point-to-point on the serial path; one per one-to-many
	// expansion on the batched path; 0 for a table read).
	SPQueries int64
	// SettledNodes is the number of nodes settled across those
	// computations (the real cost driver of network expansion).
	SettledNodes int64
	// Expansions is the number of bounded one-to-many expansions the
	// batched builder ran; 0 on the serial path and for a table read.
	Expansions int64
	// PrunedPairs is the number of pairs the Euclidean grid
	// pre-filter rejected before any expansion was scheduled (batched
	// path only; equals ELBPruned there when UseELB is set). A pair
	// table read applies the grid's test to each kept pair's stored
	// closest-endpoint Euclidean distance, so it counts the same pairs.
	PrunedPairs int
	// Workers is the worker count the batched builder resolved: for a
	// build, over the junction rows holding a neighbour within ε, and
	// for a pair table read, which has no junction rows, over its
	// flows. Goroutines start only when some distance misses the
	// cache, so a fully cached build and a table read report it
	// without starting any; 0 means the serial paper path ran.
	Workers int
	// FromTable reports a batched read answered from its flow set's
	// kept pair table (FlowSet, Pipeline.RunFlowSet): one filter over
	// the kept candidate pairs, no grid scan, no cache probe, no
	// shortest path.
	FromTable bool
	// CacheHits and CacheMisses count shared-cache consultations
	// (RefineConfig.Cache); both are 0 when no cache is attached or a
	// table answered the read. A hit replaces one or more
	// shortest-path computations, so SPQueries + CacheHits is
	// comparable across cached and uncached builds.
	CacheHits   int64
	CacheMisses int64
	// GraphTime is the wall time spent building the ε-graph (distance
	// computations and predicate evaluation); ClusterTime is the wall
	// time of the DBSCAN pass over it.
	GraphTime   time.Duration
	ClusterTime time.Duration
}

// TrajectoryCluster is a final NEAT cluster: a group of flow clusters
// (hence of t-fragments) that are both dense and continuous, and whose
// representative routes connect the same hotspot areas.
type TrajectoryCluster struct {
	Flows []*FlowCluster
}

// Cardinality returns the number of distinct trajectories participating
// in the cluster. Each flow's participant list is ascending and
// repeat-free, so one flow answers with its own count, and several are
// counted by merging their lists through a min-heap of list heads, with
// no copy: O(n log k) for n ids in k lists.
func (c *TrajectoryCluster) Cardinality() int {
	if len(c.Flows) == 1 {
		return c.Flows[0].Cardinality()
	}
	var stack [16][]traj.ID
	heads := stack[:0]
	for _, f := range c.Flows {
		if len(f.trajs) > 0 {
			heads = append(heads, f.trajs)
		}
	}
	down := func(i int) {
		for {
			j := 2*i + 1
			if j >= len(heads) {
				return
			}
			if r := j + 1; r < len(heads) && heads[r][0] < heads[j][0] {
				j = r
			}
			if heads[i][0] <= heads[j][0] {
				return
			}
			heads[i], heads[j] = heads[j], heads[i]
			i = j
		}
	}
	for i := len(heads)/2 - 1; i >= 0; i-- {
		down(i)
	}
	n := 0
	var last traj.ID
	for len(heads) > 0 {
		if id := heads[0][0]; n == 0 || id != last {
			n, last = n+1, id
		}
		if heads[0] = heads[0][1:]; len(heads[0]) == 0 {
			heads[0] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
		down(0)
	}
	return n
}

// Density returns the total t-fragment count of the cluster.
func (c *TrajectoryCluster) Density() int {
	n := 0
	for _, f := range c.Flows {
		n += f.Density()
	}
	return n
}

// Routes returns the representative routes of the member flows.
func (c *TrajectoryCluster) Routes() []roadnet.Route {
	out := make([]roadnet.Route, len(c.Flows))
	for i, f := range c.Flows {
		out[i] = f.Route
	}
	return out
}

// flowEnds holds the endpoint junctions {a1, a2} of Definition 11 for
// one flow's representative route.
type flowEnds struct{ a, b roadnet.NodeID }

func flowEndpoints(flows []*FlowCluster) []flowEnds {
	endpoints := make([]flowEnds, len(flows))
	for i, f := range flows {
		front, back := f.Endpoints()
		endpoints[i] = flowEnds{a: front, b: back}
	}
	return endpoints
}

// pairEvaluator evaluates the modified-Hausdorff ε-predicate of
// Definition 11 for flow pairs, one pair at a time, with the ELB filter
// of §III-C3 applied first when enabled. It drives a single-goroutine
// shortest-path engine and CH query state plus an optional distance
// cache; the ALT/CH preprocessing structures are read-only after
// construction.
// EpsGraph.Extend, the one serial scan, uses one evaluator per call.
type pairEvaluator struct {
	g         *roadnet.Graph
	cfg       RefineConfig
	endpoints []flowEnds
	eng       *shortest.Engine
	alt       *shortest.ALT
	ch        *shortest.CHQuery
	shared    *distcache.Cache // cfg.Cache
	bound     float64          // ε-bound class of distances this config computes

	elbPruned   int
	spQueriesCH int64 // CH queries bypass the engine; folded in later
	cacheHits   int64
	cacheMisses int64
	// err latches the first injected shortest-path fault
	// (cfg.Fault). Once set, withinEps answers false without
	// computing — the builder is expected to notice and abort, so the
	// dont-care answers never reach a clustering.
	err error
}

func newPairEvaluator(g *roadnet.Graph, cfg RefineConfig, endpoints []flowEnds, eng *shortest.Engine, alt *shortest.ALT, ch *shortest.CHQuery) *pairEvaluator {
	pe := &pairEvaluator{g: g, cfg: cfg, endpoints: endpoints, eng: eng, alt: alt, ch: ch}
	eng.SetFaults(cfg.Fault)
	if cfg.Cache != nil {
		pe.shared = cfg.Cache
		pe.bound = cacheBound(cfg)
	}
	return pe
}

// cacheScope is the shared-cache scope string for a Phase 3 run: the
// graph fingerprint plus the traversal mode and kernel. The kernel is
// part of the scope because kernels may legitimately differ in the
// last ulp of a distance (e.g. the bidirectional kernel sums two
// partial path costs), and byte-identical output requires a cached
// value to be exactly the value a fresh computation would produce.
func cacheScope(g *roadnet.Graph, cfg RefineConfig) string {
	return g.Fingerprint() + "|undirected|" + cfg.Algo.String()
}

// cacheBound is the ε-bound class of the distances this config
// computes: a bounded Dijkstra expansion only knows "farther than ε"
// beyond its radius, while every other kernel returns exact distances
// (+Inf only for unreachable pairs, i.e. bound ∞).
func cacheBound(cfg RefineConfig) float64 {
	if cfg.Algo == SPDijkstra && cfg.Bounded {
		return cfg.Epsilon
	}
	return math.Inf(1)
}

func (pe *pairEvaluator) compute(u, v roadnet.NodeID) float64 {
	switch pe.cfg.Algo {
	case SPAStar:
		return pe.eng.AStar(u, v, shortest.Undirected).Dist
	case SPBidirectional:
		return pe.eng.Bidirectional(u, v, shortest.Undirected)
	case SPALT:
		return pe.eng.AStarALT(u, v, pe.alt).Dist
	case SPCH:
		pe.spQueriesCH++
		return pe.ch.Distance(u, v)
	default:
		if pe.cfg.Bounded {
			return pe.eng.BoundedDistance(u, v, shortest.Undirected, pe.cfg.Epsilon)
		}
		return pe.eng.Dijkstra(u, v, shortest.Undirected).Dist
	}
}

func (pe *pairEvaluator) netDist(u, v roadnet.NodeID) float64 {
	if u == v {
		return 0
	}
	// The two directions of one undirected path can sum to floats an
	// ulp apart, so a pair is always queried from its lower junction:
	// the float the batched builder computes and the cache keeps, and
	// the same whichever flow of the pair comes first.
	if v < u {
		u, v = v, u
	}
	if err := pe.cfg.Fault.Inject(fault.SPQuery); err != nil {
		// Simulated shortest-path failure. Latch it and return a
		// don't-care; the builder aborts before the value matters.
		if pe.err == nil {
			pe.err = err
		}
		return math.Inf(1)
	}
	if pe.shared != nil {
		key := distcache.Key(int32(u), int32(v))
		if d, ok := pe.shared.Lookup(key, pe.bound); ok {
			pe.cacheHits++
			return d
		}
		pe.cacheMisses++
		d := pe.compute(u, v)
		pe.shared.Store(key, d, pe.bound)
		return d
	}
	return pe.compute(u, v)
}

// withinEps evaluates distN(Fi, Fj) <= ε per Definition 11.
func (pe *pairEvaluator) withinEps(i, j int) bool {
	if pe.err != nil {
		return false
	}
	ei, ej := pe.endpoints[i], pe.endpoints[j]
	pi := [2]roadnet.NodeID{ei.a, ei.b}
	pj := [2]roadnet.NodeID{ej.a, ej.b}
	if pe.cfg.UseELB {
		// Lower bound per endpoint pair: Euclidean (the paper's
		// ELB), or the tighter landmark bound when ALT is active.
		lower := func(u, v roadnet.NodeID) float64 {
			if pe.alt != nil {
				return pe.alt.Bound(u, v)
			}
			return pe.g.Node(u).Pt.Dist(pe.g.Node(v).Pt)
		}
		minE := math.Inf(1)
		for _, u := range pi {
			for _, v := range pj {
				if d := lower(u, v); d < minE {
					minE = d
				}
			}
		}
		// dE <= dN always, so if even the closest endpoint pair is
		// beyond ε in Euclidean space, the network distance — and
		// hence the Hausdorff aggregate — must exceed ε.
		if minE > pe.cfg.Epsilon {
			pe.elbPruned++
			return false
		}
	}
	var dn [2][2]float64
	for ui, u := range pi {
		for vi, v := range pj {
			dn[ui][vi] = pe.netDist(u, v)
		}
	}
	return hausdorff(dn) <= pe.cfg.Epsilon
}

// hausdorff applies the modified Hausdorff aggregate (formula 5) to
// the 2x2 endpoint distance matrix: max over both directions of the
// per-endpoint min. Definition 11 compares it against ε.
func hausdorff(dn [2][2]float64) float64 {
	worst := 0.0
	for ui := 0; ui < 2; ui++ {
		m := math.Min(dn[ui][0], dn[ui][1])
		if m > worst {
			worst = m
		}
	}
	for vi := 0; vi < 2; vi++ {
		m := math.Min(dn[0][vi], dn[1][vi])
		if m > worst {
			worst = m
		}
	}
	return worst
}

// batched reports whether Phase 3 builds its ε-graph with the batched
// one-to-many builder: it needs worker goroutines, the Dijkstra kernel
// it replaces, and a finite radius to bound its expansions. Every
// other configuration runs the serial pairwise scan of an EpsGraph.
func (c RefineConfig) batched() bool {
	return c.Workers != 0 && c.Algo == SPDijkstra && !math.IsInf(c.Epsilon, 1)
}

// RefineFlows performs Phase 3: it merges flow clusters whose
// representative routes end within network distance ε of each other,
// using the modified Hausdorff distance of Definition 11 and a
// deterministic DBSCAN seeded longest-route-first. It returns the final
// trajectory clusters together with work statistics.
//
// The ε-graph comes from a fresh EpsGraph's serial pairwise scan, or —
// when cfg.Workers is set with the Dijkstra kernel and a finite ε —
// from the batched one-to-many builder (see RefineConfig.Workers);
// both produce the identical clustering.
func RefineFlows(g *roadnet.Graph, flows []*FlowCluster, cfg RefineConfig) ([]*TrajectoryCluster, RefineStats, error) {
	return refineFlows(context.Background(), g, flows, cfg, nil, 0)
}

// refineFlows is RefineFlows with cooperative cancellation: when ctx
// is cancelled mid-build, every builder stops promptly (workers drain,
// no goroutine leaks), partial work is discarded, and the ctx error is
// returned. A re-run with an uncancelled context is byte-identical to a
// run that was never cancelled — cancellation never leaks into state.
// A non-nil fs says flows are its flows at minCard, so the batched
// builder may read and keep fs's pair table (FlowSet.epsGraph).
func refineFlows(ctx context.Context, g *roadnet.Graph, flows []*FlowCluster, cfg RefineConfig, fs *FlowSet, minCard int) ([]*TrajectoryCluster, RefineStats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, RefineStats{}, err
	}
	if len(flows) == 0 {
		return nil, RefineStats{}, nil
	}
	if !cfg.batched() {
		eg, err := NewEpsGraph(g, cfg)
		if err != nil {
			return nil, RefineStats{}, err
		}
		stats, err := eg.Extend(ctx, flows)
		if err != nil {
			return nil, stats, err
		}
		clusters, clusterTime, err := eg.Cluster()
		stats.ClusterTime = clusterTime
		return clusters, stats, err
	}

	cfg = cfg.withDefaults()
	// Bind the shared cache to this (graph, kernel) scope; if it was
	// last used against a different one, this invalidates every entry.
	cfg.Cache.SetScope(cacheScope(g, cfg))
	var stats RefineStats
	var adjacency [][]int
	var err error
	start := time.Now()
	switch {
	case len(flows) < 2:
		adjacency = make([][]int, len(flows))
	case fs != nil:
		adjacency, err = fs.epsGraph(ctx, g, flows, minCard, cfg, &stats)
	default:
		adjacency, err = buildEpsGraphBatched(ctx, g, flows, cfg, &stats)
	}
	if err != nil {
		return nil, stats, err
	}
	stats.GraphTime = time.Since(start)
	start = time.Now()
	clusters, err := clusterEpsGraph(g, flows, adjacency, cfg)
	stats.ClusterTime = time.Since(start)
	return clusters, stats, err
}

// clusterEpsGraph runs the deterministic DBSCAN pass over a completed
// ε-graph and assembles the trajectory clusters. It is the shared tail
// of the batched RefineFlows and EpsGraph.Cluster: every ε-graph feeds
// the identical pass, which is why neither the builder nor incremental
// maintenance can change the output.
func clusterEpsGraph(g *roadnet.Graph, flows []*FlowCluster, adjacency [][]int, cfg RefineConfig) ([]*TrajectoryCluster, error) {
	// Deterministic seed order: longest representative route first
	// (modification (4) of §III-C2); ties by route segment count, then
	// first segment id.
	order := make([]int, len(flows))
	for i := range order {
		order[i] = i
	}
	lengths := make([]float64, len(flows))
	for i, f := range flows {
		lengths[i] = f.RouteLength(g)
	}
	sort.SliceStable(order, func(x, y int) bool {
		i, j := order[x], order[y]
		if lengths[i] != lengths[j] {
			return lengths[i] > lengths[j]
		}
		if len(flows[i].Route) != len(flows[j].Route) {
			return len(flows[i].Route) > len(flows[j].Route)
		}
		return flows[i].Route[0] < flows[j].Route[0]
	})

	res, err := dbscan.Cluster(len(flows), order, cfg.MinPts, func(i int) []int {
		return adjacency[i]
	})
	if err != nil {
		return nil, fmt.Errorf("neat: refinement clustering: %w", err)
	}

	clusters := make([]*TrajectoryCluster, res.NumClusters)
	for i := range clusters {
		clusters[i] = &TrajectoryCluster{}
	}
	var noise []*TrajectoryCluster
	for i, label := range res.Labels {
		if label == dbscan.Noise {
			// With MinPts > 1 isolated flows are noise; surface them as
			// singleton clusters so the result remains a partition.
			noise = append(noise, &TrajectoryCluster{Flows: []*FlowCluster{flows[i]}})
			continue
		}
		clusters[label].Flows = append(clusters[label].Flows, flows[i])
	}
	clusters = append(clusters, noise...)
	return clusters, nil
}
