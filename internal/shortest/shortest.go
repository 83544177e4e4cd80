// Package shortest implements the shortest-path machinery NEAT depends
// on: Dijkstra's network expansion, A* with the Euclidean heuristic,
// and bidirectional Dijkstra, over either the directed road graph (used
// by the mobility simulator, which must respect one-way segments) or
// its undirected view (used by NEAT Phase 3, which the paper defines on
// undirected network distance: "dN(a, b) and dN(b, a) are the same
// since we consider undirected graphs").
//
// The Engine reuses its internal arrays across queries via epoch
// stamping, so a query allocates only for the returned path. It also
// counts queries and settled nodes, which the Fig 7 experiment uses to
// quantify how many computations the Euclidean lower bound avoids.
package shortest

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/roadnet"
)

// Mode selects which edges a query may traverse.
type Mode uint8

const (
	// Directed traversal honors one-way restrictions.
	Directed Mode = iota
	// Undirected traversal treats every segment as traversable both
	// ways, matching the paper's Phase 3 distance definition.
	Undirected
)

// Stats counts the work an Engine has performed. All fields are
// monotonically increasing and safe to read concurrently.
type Stats struct {
	Queries      atomic.Int64 // point-to-point shortest path computations
	SettledNodes atomic.Int64 // nodes permanently labeled across all queries
}

// Snapshot returns a plain copy of the counters.
func (s *Stats) Snapshot() (queries, settled int64) {
	return s.Queries.Load(), s.SettledNodes.Load()
}

// Engine answers shortest-path queries over a fixed graph.
//
// Concurrency invariant: an Engine is NOT safe for concurrent use. The
// epoch-stamped work arrays below are reused across queries, so two
// in-flight queries on the same Engine would corrupt each other's
// distance labels. Confine each Engine to a single goroutine; worker
// pools give each goroutine its own engine via New (engines share the
// immutable graph and, optionally, one atomic Stats receiver, so an
// extra engine costs only the work arrays — O(nodes) memory, no
// preprocessing).
type Engine struct {
	g     *roadnet.Graph
	stats *Stats
	// faults is the optional latency injector consulted at every query
	// entry (fault.SPQuery); nil — the default — costs one nil check.
	// Latency only: an Engine has no error path, so failure injection
	// happens in the callers that can propagate errors (internal/neat).
	faults *fault.Injector

	// Epoch-stamped work arrays, reused across queries.
	dist    []float64
	distB   []float64 // backward search (bidirectional)
	prev    []roadnet.EdgeID
	prevB   []roadnet.EdgeID
	epoch   []uint32
	epochB  []uint32
	settled []uint32
	target  []uint32 // DistancesTo: stamped for the current call's targets
	curEp   uint32

	heap  nodeHeap
	heapB nodeHeap
}

// New creates an Engine over g. The optional stats receiver accumulates
// counters across engines; pass nil for a private one.
func New(g *roadnet.Graph, stats *Stats) *Engine {
	if stats == nil {
		stats = &Stats{}
	}
	n := g.NumNodes()
	return &Engine{
		g:       g,
		stats:   stats,
		dist:    make([]float64, n),
		distB:   make([]float64, n),
		prev:    make([]roadnet.EdgeID, n),
		prevB:   make([]roadnet.EdgeID, n),
		epoch:   make([]uint32, n),
		epochB:  make([]uint32, n),
		settled: make([]uint32, n),
		target:  make([]uint32, n),
	}
}

// SetFaults attaches a fault injector: every subsequent query first
// consults it for injected latency (fault.SPQuery). Nil detaches (the
// default). Latency injection never changes query results, only their
// wall time.
func (e *Engine) SetFaults(in *fault.Injector) { e.faults = in }

// Stats returns the engine's counters.
func (e *Engine) Stats() *Stats { return e.stats }

// Graph returns the underlying graph.
func (e *Engine) Graph() *roadnet.Graph { return e.g }

func (e *Engine) newEpoch() {
	e.curEp++
	if e.curEp == 0 { // wrapped: clear stamps and restart
		for i := range e.epoch {
			e.epoch[i] = 0
			e.epochB[i] = 0
			e.settled[i] = 0
			e.target[i] = 0
		}
		e.curEp = 1
	}
}

func (e *Engine) getDist(n roadnet.NodeID) float64 {
	if e.epoch[n] != e.curEp {
		return math.Inf(1)
	}
	return e.dist[n]
}

func (e *Engine) setDist(n roadnet.NodeID, d float64, via roadnet.EdgeID) {
	e.epoch[n] = e.curEp
	e.dist[n] = d
	e.prev[n] = via
}

func (e *Engine) getDistB(n roadnet.NodeID) float64 {
	if e.epochB[n] != e.curEp {
		return math.Inf(1)
	}
	return e.distB[n]
}

func (e *Engine) setDistB(n roadnet.NodeID, d float64, via roadnet.EdgeID) {
	e.epochB[n] = e.curEp
	e.distB[n] = d
	e.prevB[n] = via
}

// forEachNeighbor visits the neighbors of n reachable in one hop under
// the mode. forward=false reverses edge direction (for the backward
// frontier of bidirectional search).
func (e *Engine) forEachNeighbor(n roadnet.NodeID, mode Mode, forward bool, visit func(next roadnet.NodeID, via roadnet.EdgeID, w float64)) {
	if mode == Undirected {
		// Every incident segment is traversable; synthesize the edge id
		// of the matching directed edge when one exists, else use the
		// opposite direction's id (only used for path reconstruction by
		// segment, which is direction-agnostic).
		for _, sid := range e.g.SegmentsAt(n) {
			seg := e.g.Segment(sid)
			next := seg.OtherEnd(n)
			eid, ok := e.g.DirectedEdge(n, next)
			if !ok {
				eid, _ = e.g.DirectedEdge(next, n)
			}
			visit(next, eid, seg.Length)
		}
		return
	}
	if forward {
		for _, eid := range e.g.Out(n) {
			ed := e.g.Edge(eid)
			visit(ed.To, eid, ed.Length)
		}
	} else {
		for _, eid := range e.g.In(n) {
			ed := e.g.Edge(eid)
			visit(ed.From, eid, ed.Length)
		}
	}
}

// Result is the outcome of a point-to-point query.
type Result struct {
	Dist  float64          // meters; +Inf when unreachable
	Nodes []roadnet.NodeID // junction sequence from source to target
	Route roadnet.Route    // traversed segments, in order
}

// Reachable reports whether the target was reached.
func (r Result) Reachable() bool { return !math.IsInf(r.Dist, 1) }

// Dijkstra computes the shortest path from one junction to another
// using plain network expansion.
func (e *Engine) Dijkstra(from, to roadnet.NodeID, mode Mode) Result {
	return e.pointToPoint(from, to, mode, false)
}

// AStar computes the shortest path using A* with the straight-line
// distance heuristic, which is admissible because segment lengths equal
// the Euclidean distance between their endpoints.
func (e *Engine) AStar(from, to roadnet.NodeID, mode Mode) Result {
	return e.pointToPoint(from, to, mode, true)
}

func (e *Engine) pointToPoint(from, to roadnet.NodeID, mode Mode, astar bool) Result {
	e.faults.Sleep(fault.SPQuery)
	e.stats.Queries.Add(1)
	e.newEpoch()
	target := e.g.Node(to).Pt
	h := func(n roadnet.NodeID) float64 {
		if !astar {
			return 0
		}
		return e.g.Node(n).Pt.Dist(target)
	}
	e.heap.reset()
	e.setDist(from, 0, -1)
	e.heap.push(heapItem{node: from, prio: h(from)})
	var settledCount int64
	for e.heap.len() > 0 {
		it := e.heap.pop()
		n := it.node
		if e.settled[n] == e.curEp {
			continue
		}
		e.settled[n] = e.curEp
		settledCount++
		if n == to {
			break
		}
		dn := e.getDist(n)
		e.forEachNeighbor(n, mode, true, func(next roadnet.NodeID, via roadnet.EdgeID, w float64) {
			if e.settled[next] == e.curEp {
				return
			}
			nd := dn + w
			if nd < e.getDist(next) {
				e.setDist(next, nd, via)
				e.heap.push(heapItem{node: next, prio: nd + h(next)})
			}
		})
	}
	e.stats.SettledNodes.Add(settledCount)
	if e.settled[to] != e.curEp {
		return Result{Dist: math.Inf(1)}
	}
	return e.reconstruct(from, to)
}

func (e *Engine) reconstruct(from, to roadnet.NodeID) Result {
	res := Result{Dist: e.getDist(to)}
	// Walk predecessor edges backwards.
	var nodes []roadnet.NodeID
	var route roadnet.Route
	cur := to
	for cur != from {
		nodes = append(nodes, cur)
		eid := e.prev[cur]
		if eid < 0 {
			return Result{Dist: math.Inf(1)}
		}
		ed := e.g.Edge(eid)
		route = append(route, ed.Seg)
		if ed.To == cur {
			cur = ed.From
		} else {
			cur = ed.To
		}
	}
	nodes = append(nodes, from)
	reverseNodes(nodes)
	reverseRoute(route)
	res.Nodes = nodes
	res.Route = route
	return res
}

func reverseNodes(s []roadnet.NodeID) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

func reverseRoute(s roadnet.Route) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

// Distance returns only the network distance between two junctions,
// without path reconstruction, using Dijkstra expansion with early
// termination at the target.
func (e *Engine) Distance(from, to roadnet.NodeID, mode Mode) float64 {
	if from == to {
		e.stats.Queries.Add(1)
		return 0
	}
	return e.pointToPoint(from, to, mode, true).Dist
}

// BoundedDistance returns the network distance between two junctions if
// it does not exceed maxDist, or +Inf otherwise. The expansion is
// pruned at maxDist, which keeps epsilon-neighborhood probes cheap.
func (e *Engine) BoundedDistance(from, to roadnet.NodeID, mode Mode, maxDist float64) float64 {
	e.faults.Sleep(fault.SPQuery)
	e.stats.Queries.Add(1)
	if from == to {
		return 0
	}
	e.newEpoch()
	e.heap.reset()
	e.setDist(from, 0, -1)
	e.heap.push(heapItem{node: from, prio: 0})
	var settledCount int64
	defer func() { e.stats.SettledNodes.Add(settledCount) }()
	for e.heap.len() > 0 {
		it := e.heap.pop()
		n := it.node
		if e.settled[n] == e.curEp {
			continue
		}
		e.settled[n] = e.curEp
		settledCount++
		dn := e.getDist(n)
		if dn > maxDist {
			return math.Inf(1)
		}
		if n == to {
			return dn
		}
		e.forEachNeighbor(n, mode, true, func(next roadnet.NodeID, via roadnet.EdgeID, w float64) {
			if e.settled[next] == e.curEp {
				return
			}
			nd := dn + w
			if nd <= maxDist && nd < e.getDist(next) {
				e.setDist(next, nd, via)
				e.heap.push(heapItem{node: next, prio: nd})
			}
		})
	}
	return math.Inf(1)
}

// Bidirectional computes the shortest path distance between two
// junctions with bidirectional Dijkstra. It returns only the distance;
// it exists as an ablation comparator for Phase 3's distance kernel.
func (e *Engine) Bidirectional(from, to roadnet.NodeID, mode Mode) float64 {
	e.faults.Sleep(fault.SPQuery)
	e.stats.Queries.Add(1)
	if from == to {
		return 0
	}
	e.newEpoch()
	e.heap.reset()
	e.heapB.reset()
	e.setDist(from, 0, -1)
	e.setDistB(to, 0, -1)
	e.heap.push(heapItem{node: from, prio: 0})
	e.heapB.push(heapItem{node: to, prio: 0})
	best := math.Inf(1)
	var settledCount int64
	defer func() { e.stats.SettledNodes.Add(settledCount) }()

	settledF := make(map[roadnet.NodeID]struct{})
	settledB := make(map[roadnet.NodeID]struct{})

	for e.heap.len() > 0 || e.heapB.len() > 0 {
		var topF, topB float64 = math.Inf(1), math.Inf(1)
		if e.heap.len() > 0 {
			topF = e.heap.peek().prio
		}
		if e.heapB.len() > 0 {
			topB = e.heapB.peek().prio
		}
		if topF+topB >= best {
			break
		}
		if topF <= topB {
			it := e.heap.pop()
			n := it.node
			if _, done := settledF[n]; done {
				continue
			}
			settledF[n] = struct{}{}
			settledCount++
			dn := e.getDist(n)
			if db := e.getDistB(n); !math.IsInf(db, 1) && dn+db < best {
				best = dn + db
			}
			e.forEachNeighbor(n, mode, true, func(next roadnet.NodeID, via roadnet.EdgeID, w float64) {
				nd := dn + w
				if nd < e.getDist(next) {
					e.setDist(next, nd, via)
					e.heap.push(heapItem{node: next, prio: nd})
				}
				if db := e.getDistB(next); !math.IsInf(db, 1) && nd+db < best {
					best = nd + db
				}
			})
		} else {
			it := e.heapB.pop()
			n := it.node
			if _, done := settledB[n]; done {
				continue
			}
			settledB[n] = struct{}{}
			settledCount++
			dn := e.getDistB(n)
			if df := e.getDist(n); !math.IsInf(df, 1) && dn+df < best {
				best = dn + df
			}
			e.forEachNeighbor(n, mode, false, func(next roadnet.NodeID, via roadnet.EdgeID, w float64) {
				nd := dn + w
				if nd < e.getDistB(next) {
					e.setDistB(next, nd, via)
					e.heapB.push(heapItem{node: next, prio: nd})
				}
				if df := e.getDist(next); !math.IsInf(df, 1) && nd+df < best {
					best = nd + df
				}
			})
		}
	}
	return best
}

// Tree computes single-source shortest path distances to every junction
// reachable within maxDist (use +Inf for the full tree). The returned
// slice is indexed by NodeID; unreachable nodes hold +Inf. The slice is
// freshly allocated and owned by the caller.
func (e *Engine) Tree(from roadnet.NodeID, mode Mode, maxDist float64) []float64 {
	e.stats.Queries.Add(1)
	e.newEpoch()
	e.heap.reset()
	e.setDist(from, 0, -1)
	e.heap.push(heapItem{node: from, prio: 0})
	out := make([]float64, e.g.NumNodes())
	for i := range out {
		out[i] = math.Inf(1)
	}
	var settledCount int64
	for e.heap.len() > 0 {
		it := e.heap.pop()
		n := it.node
		if e.settled[n] == e.curEp {
			continue
		}
		e.settled[n] = e.curEp
		settledCount++
		dn := e.getDist(n)
		if dn > maxDist {
			break
		}
		out[n] = dn
		e.forEachNeighbor(n, mode, true, func(next roadnet.NodeID, via roadnet.EdgeID, w float64) {
			if e.settled[next] == e.curEp {
				return
			}
			nd := dn + w
			if nd <= maxDist && nd < e.getDist(next) {
				e.setDist(next, nd, via)
				e.heap.push(heapItem{node: next, prio: nd})
			}
		})
	}
	e.stats.SettledNodes.Add(settledCount)
	return out
}

// DistancesTo computes bounded one-to-many shortest-path distances: a
// single expansion from `from` that writes the network distance to
// targets[i] into dst[i], pruned at maxDist, and returns
// dst[:len(targets)]; dst must hold at least len(targets) slots.
// Entries farther than maxDist (or unreachable) hold +Inf, a target
// equal to from holds 0, and a repeated target gets the same distance
// in every slot. The expansion stops as soon as every distinct target
// is settled or the frontier exceeds maxDist, and it counts as ONE
// query in Stats — this is the kernel that lets an ε-neighborhood scan
// collapse many point-to-point probes from the same source into one
// Dijkstra pass (generalizing Tree, which reports the whole
// radius-bounded tree). Targets are marked in an epoch-stamped
// per-node array, so a call allocates nothing.
func (e *Engine) DistancesTo(dst []float64, from roadnet.NodeID, mode Mode, maxDist float64, targets []roadnet.NodeID) []float64 {
	e.faults.Sleep(fault.SPQuery)
	e.stats.Queries.Add(1)
	dst = dst[:len(targets)]
	e.newEpoch()
	remaining := 0
	for _, t := range targets {
		if t != from && e.target[t] != e.curEp {
			e.target[t] = e.curEp
			remaining++
		}
	}
	if remaining > 0 {
		e.heap.reset()
		e.setDist(from, 0, -1)
		e.heap.push(heapItem{node: from, prio: 0})
		var settledCount int64
		for e.heap.len() > 0 {
			it := e.heap.pop()
			n := it.node
			if e.settled[n] == e.curEp {
				continue
			}
			e.settled[n] = e.curEp
			settledCount++
			dn := e.getDist(n)
			if dn > maxDist {
				break
			}
			if e.target[n] == e.curEp {
				if remaining--; remaining == 0 {
					break
				}
			}
			e.forEachNeighbor(n, mode, true, func(next roadnet.NodeID, via roadnet.EdgeID, w float64) {
				if e.settled[next] == e.curEp {
					return
				}
				nd := dn + w
				if nd <= maxDist && nd < e.getDist(next) {
					e.setDist(next, nd, via)
					e.heap.push(heapItem{node: next, prio: nd})
				}
			})
		}
		e.stats.SettledNodes.Add(settledCount)
	}
	// A settled node's label is final; one settled beyond maxDist
	// (only the source, when maxDist < 0) reads as beyond it.
	for i, t := range targets {
		switch d := e.getDist(t); {
		case t == from:
			dst[i] = 0
		case e.settled[t] == e.curEp && d <= maxDist:
			dst[i] = d
		default:
			dst[i] = math.Inf(1)
		}
	}
	return dst
}

// LocationRoute computes the shortest travel route between two
// arbitrary road-network locations under the given mode, returning the
// total distance and the junction-level route in between. The distance
// accounts for the partial offsets on the first and last segments.
func (e *Engine) LocationRoute(a, b roadnet.Location, mode Mode) (float64, Result, error) {
	if a.Seg == b.Seg {
		d, err := roadnet.DistAlong(a, b)
		if err != nil {
			return 0, Result{}, err
		}
		return d, Result{Dist: d, Route: roadnet.Route{a.Seg}}, nil
	}
	segA, segB := e.g.Segment(a.Seg), e.g.Segment(b.Seg)
	best := math.Inf(1)
	var bestRes Result
	// Try all four endpoint combinations; each candidate distance is
	// offsetToEndpoint(a) + junctionPath + endpointToOffset(b).
	for _, na := range []roadnet.NodeID{segA.NI, segA.NJ} {
		offA := a.Offset
		if na == segA.NJ {
			offA = segA.Length - a.Offset
		}
		for _, nb := range []roadnet.NodeID{segB.NI, segB.NJ} {
			offB := b.Offset
			if nb == segB.NJ {
				offB = segB.Length - b.Offset
			}
			r := e.pointToPoint(na, nb, mode, true)
			if !r.Reachable() {
				continue
			}
			total := offA + r.Dist + offB
			if total < best {
				best = total
				bestRes = r
				bestRes.Dist = total
			}
		}
	}
	if math.IsInf(best, 1) {
		return best, Result{Dist: best}, fmt.Errorf("shortest: no path between segment %d and segment %d", a.Seg, b.Seg)
	}
	return best, bestRes, nil
}
