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
	"slices"
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

// Engine answers shortest-path queries over a fixed graph. Every query
// opens the same way (the injected latency draw, one count in
// Stats.Queries, a new epoch), and every query but Bidirectional runs
// the one settle loop, expand. Labels record the segment they arrived
// by, so a route names the segment the expansion relaxed, and an
// undirected relaxation reads only the junction's incident segments.
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

	// Epoch-stamped work arrays, reused across queries: an entry
	// belongs to the current query only while its stamp equals curEp.
	fwd    frontier
	bwd    frontier        // Bidirectional's backward search
	prev   []roadnet.SegID // segment each forward label arrived by
	target []uint32        // nodes the current expansion waits to settle
	curEp  uint32
}

// frontier is one search direction's labels, settle stamps and heap.
type frontier struct {
	dist    []float64
	epoch   []uint32
	settled []uint32
	heap    nodeHeap
}

func newFrontier(n int) frontier {
	return frontier{dist: make([]float64, n), epoch: make([]uint32, n), settled: make([]uint32, n)}
}

// at returns n's label in the query stamped ep, +Inf when it has none.
func (f *frontier) at(n roadnet.NodeID, ep uint32) float64 {
	if f.epoch[n] != ep {
		return math.Inf(1)
	}
	return f.dist[n]
}

func (f *frontier) label(n roadnet.NodeID, d float64, ep uint32) {
	f.epoch[n] = ep
	f.dist[n] = d
}

// New creates an Engine over g. The optional stats receiver accumulates
// counters across engines; pass nil for a private one.
func New(g *roadnet.Graph, stats *Stats) *Engine {
	if stats == nil {
		stats = &Stats{}
	}
	n := g.NumNodes()
	return &Engine{
		g:      g,
		stats:  stats,
		fwd:    newFrontier(n),
		bwd:    newFrontier(n),
		prev:   make([]roadnet.SegID, n),
		target: make([]uint32, n),
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

// open starts a query: it draws the injected latency, counts the query
// and moves to a new epoch, which discards every label, settle stamp
// and target mark of earlier queries.
func (e *Engine) open() {
	e.faults.Sleep(fault.SPQuery)
	e.stats.Queries.Add(1)
	e.curEp++
	if e.curEp == 0 { // wrapped: clear stamps and restart
		for _, stamps := range [][]uint32{e.fwd.epoch, e.fwd.settled, e.bwd.epoch, e.bwd.settled, e.target} {
			clear(stamps)
		}
		e.curEp = 1
	}
}

// forEachNeighbor visits the junctions one segment away from n under
// the mode, with that segment and its length. forward=false follows
// directed edges backwards (for the backward frontier of bidirectional
// search).
func (e *Engine) forEachNeighbor(n roadnet.NodeID, mode Mode, forward bool, visit func(next roadnet.NodeID, via roadnet.SegID, w float64)) {
	switch {
	case mode == Undirected:
		for _, sid := range e.g.SegmentsAt(n) {
			seg := e.g.Segment(sid)
			visit(seg.OtherEnd(n), sid, seg.Length)
		}
	case forward:
		for _, eid := range e.g.Out(n) {
			ed := e.g.Edge(eid)
			visit(ed.To, ed.Seg, ed.Length)
		}
	default:
		for _, eid := range e.g.In(n) {
			ed := e.g.Edge(eid)
			visit(ed.From, ed.Seg, ed.Length)
		}
	}
}

// expand is the settle loop behind every single-source query: Dijkstra
// from `from` under the mode, popping nodes in order of distance plus
// the heuristic h (nil for none), labelling no node farther than
// maxDist, and stopping once `targets` target-marked nodes are settled
// (0 runs until the frontier empties). Only the source can be settled
// beyond maxDist, when maxDist < 0, and it then labels nothing. The
// settled nodes are added to Stats.
func (e *Engine) expand(from roadnet.NodeID, mode Mode, maxDist float64, h func(roadnet.NodeID) float64, targets int) {
	f, ep := &e.fwd, e.curEp
	f.heap.reset()
	f.label(from, 0, ep)
	f.heap.push(heapItem{node: from, prio: priority(h, from, 0)})
	var settled int64
	for f.heap.len() > 0 {
		n := f.heap.pop().node
		if f.settled[n] == ep {
			continue
		}
		f.settled[n] = ep
		settled++
		if e.target[n] == ep {
			if targets--; targets == 0 {
				break
			}
		}
		dn := f.dist[n]
		e.forEachNeighbor(n, mode, true, func(next roadnet.NodeID, via roadnet.SegID, w float64) {
			if nd := dn + w; f.settled[next] != ep && nd <= maxDist && nd < f.at(next, ep) {
				f.label(next, nd, ep)
				e.prev[next] = via
				f.heap.push(heapItem{node: next, prio: priority(h, next, nd)})
			}
		})
	}
	e.stats.SettledNodes.Add(settled)
}

// priority orders expand's heap: the distance d to n plus the
// heuristic, if any.
func priority(h func(roadnet.NodeID) float64, n roadnet.NodeID, d float64) float64 {
	if h == nil {
		return d
	}
	return d + h(n)
}

// reached returns n's distance when the last expansion settled it
// within maxDist, else +Inf.
func (e *Engine) reached(n roadnet.NodeID, maxDist float64) float64 {
	if d := e.fwd.dist[n]; e.fwd.settled[n] == e.curEp && d <= maxDist {
		return d
	}
	return math.Inf(1)
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
	return e.pointToPoint(from, to, mode, nil)
}

// AStar computes the shortest path using A* with the straight-line
// distance heuristic, which is admissible because segment lengths equal
// the Euclidean distance between their endpoints.
func (e *Engine) AStar(from, to roadnet.NodeID, mode Mode) Result {
	target := e.g.Node(to).Pt
	return e.pointToPoint(from, to, mode, func(n roadnet.NodeID) float64 { return e.g.Node(n).Pt.Dist(target) })
}

// pointToPoint expands from `from` until `to` is settled and walks the
// predecessor segments back into a route.
func (e *Engine) pointToPoint(from, to roadnet.NodeID, mode Mode, h func(roadnet.NodeID) float64) Result {
	e.open()
	e.target[to] = e.curEp
	e.expand(from, mode, math.Inf(1), h, 1)
	res := Result{Dist: e.reached(to, math.Inf(1))}
	if !res.Reachable() {
		return res
	}
	for cur := to; ; {
		res.Nodes = append(res.Nodes, cur)
		if cur == from {
			break
		}
		sid := e.prev[cur]
		res.Route = append(res.Route, sid)
		cur = e.g.Segment(sid).OtherEnd(cur)
	}
	slices.Reverse(res.Nodes)
	slices.Reverse(res.Route)
	return res
}

// BoundedDistance returns the network distance between two junctions if
// it does not exceed maxDist, or +Inf otherwise. The expansion is
// pruned at maxDist, which keeps epsilon-neighborhood probes cheap.
func (e *Engine) BoundedDistance(from, to roadnet.NodeID, mode Mode, maxDist float64) float64 {
	e.open()
	if from == to {
		return 0
	}
	e.target[to] = e.curEp
	e.expand(from, mode, maxDist, nil, 1)
	return e.reached(to, maxDist)
}

// Bidirectional computes the shortest path distance between two
// junctions with bidirectional Dijkstra. It returns only the distance;
// it exists as an ablation comparator for Phase 3's distance kernel.
// Both frontiers keep epoch-stamped arrays, so a call allocates
// nothing.
func (e *Engine) Bidirectional(from, to roadnet.NodeID, mode Mode) float64 {
	e.open()
	if from == to {
		return 0
	}
	ep := e.curEp
	e.fwd.heap.reset()
	e.bwd.heap.reset()
	e.fwd.label(from, 0, ep)
	e.bwd.label(to, 0, ep)
	e.fwd.heap.push(heapItem{node: from, prio: 0})
	e.bwd.heap.push(heapItem{node: to, prio: 0})
	best := math.Inf(1)
	var settled int64
	// The search ends once the two frontiers' minima sum past the best
	// meeting, which an empty frontier (+Inf) always does.
	for e.fwd.heap.min()+e.bwd.heap.min() < best {
		f, other, forward := &e.fwd, &e.bwd, true
		if e.bwd.heap.min() < e.fwd.heap.min() {
			f, other, forward = &e.bwd, &e.fwd, false
		}
		n := f.heap.pop().node
		if f.settled[n] == ep {
			continue
		}
		f.settled[n] = ep
		settled++
		dn := f.dist[n]
		best = math.Min(best, dn+other.at(n, ep))
		e.forEachNeighbor(n, mode, forward, func(next roadnet.NodeID, _ roadnet.SegID, w float64) {
			nd := dn + w
			if nd < f.at(next, ep) {
				f.label(next, nd, ep)
				f.heap.push(heapItem{node: next, prio: nd})
			}
			best = math.Min(best, nd+other.at(next, ep))
		})
	}
	e.stats.SettledNodes.Add(settled)
	return best
}

// Tree computes single-source shortest path distances to every junction
// reachable within maxDist (use +Inf for the full tree). The returned
// slice is indexed by NodeID; unreachable nodes hold +Inf. The slice is
// freshly allocated and owned by the caller.
func (e *Engine) Tree(from roadnet.NodeID, mode Mode, maxDist float64) []float64 {
	e.open()
	e.expand(from, mode, maxDist, nil, 0)
	out := make([]float64, e.g.NumNodes())
	for n := range out {
		out[n] = e.reached(roadnet.NodeID(n), maxDist)
	}
	return out
}

// DistancesTo computes bounded one-to-many shortest-path distances: a
// single expansion from `from` that writes the network distance to
// targets[i] into dst[i], pruned at maxDist, and returns
// dst[:len(targets)]; dst must hold at least len(targets) slots.
// Entries farther than maxDist (or unreachable) hold +Inf, a target
// equal to from holds 0, and a repeated target gets the same distance
// in every slot. The expansion stops as soon as every distinct target
// is settled or nothing within maxDist is left to settle, and it
// counts as ONE query in Stats — this is the kernel that lets an
// ε-neighborhood scan collapse many point-to-point probes from the
// same source into one Dijkstra pass (generalizing Tree, which reports
// the whole radius-bounded tree). Targets are marked in an
// epoch-stamped per-node array, so a call allocates nothing.
func (e *Engine) DistancesTo(dst []float64, from roadnet.NodeID, mode Mode, maxDist float64, targets []roadnet.NodeID) []float64 {
	e.open()
	dst = dst[:len(targets)]
	remaining := 0
	for _, t := range targets {
		if t != from && e.target[t] != e.curEp {
			e.target[t] = e.curEp
			remaining++
		}
	}
	if remaining > 0 {
		e.expand(from, mode, maxDist, nil, remaining)
	}
	for i, t := range targets {
		if t == from {
			dst[i] = 0
		} else {
			dst[i] = e.reached(t, maxDist)
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
			r := e.AStar(na, nb, mode)
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
