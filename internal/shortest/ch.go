package shortest

import (
	"fmt"
	"math"

	"repro/internal/roadnet"
)

// CH is a Contraction Hierarchy over the undirected view of a road
// network (Geisberger et al., 2008). Nodes are contracted in
// importance order; shortcut edges preserve shortest-path distances
// among the remaining nodes, and queries run a bidirectional Dijkstra
// that only ever relaxes edges leading upward in the hierarchy —
// typically settling orders of magnitude fewer nodes than plain
// Dijkstra on large networks.
//
// Like ALT, this is an extension beyond the paper (whose Phase 3 uses
// plain Dijkstra): NEAT's refinement issues many point-to-point
// queries over one immutable graph, which is exactly the regime that
// justifies preprocessing. The undirected restriction matches the
// paper's Phase 3 distance definition.
type CH struct {
	g    *roadnet.Graph
	rank []int32    // contraction order per node; higher = more important
	up   [][]chEdge // edges (original + shortcuts) to higher-ranked nodes
}

type chEdge struct {
	to roadnet.NodeID
	w  float64
}

// chBuildState holds the dynamic overlay graph during preprocessing.
type chBuildState struct {
	g       *roadnet.Graph
	adj     []map[roadnet.NodeID]float64 // remaining overlay adjacency
	deleted []bool
	level   []int32 // contracted-neighbor depth, part of the priority
}

// NewCH preprocesses the graph. Cost is roughly O(n log n) local
// witness searches; the ATL-scale map (7k junctions) builds in well
// under a second.
func NewCH(g *roadnet.Graph) (*CH, error) {
	n := g.NumNodes()
	if n == 0 {
		return nil, fmt.Errorf("shortest: empty graph")
	}
	st := &chBuildState{
		g:       g,
		adj:     make([]map[roadnet.NodeID]float64, n),
		deleted: make([]bool, n),
		level:   make([]int32, n),
	}
	for i := range st.adj {
		st.adj[i] = make(map[roadnet.NodeID]float64)
	}
	for _, s := range g.Segments() {
		// Undirected overlay; parallel segments keep the shorter.
		addUndirected(st.adj, s.NI, s.NJ, s.Length)
	}

	ch := &CH{
		g:    g,
		rank: make([]int32, n),
		up:   make([][]chEdge, n),
	}

	// Priority queue of contraction candidates by edge-difference
	// priority, with lazy re-evaluation.
	var pq nodeHeap
	for v := 0; v < n; v++ {
		pq.push(heapItem{node: roadnet.NodeID(v), prio: st.priority(roadnet.NodeID(v))})
	}
	nextRank := int32(0)
	for pq.len() > 0 {
		cand := pq.pop()
		v := cand.node
		if st.deleted[v] {
			continue
		}
		// Lazy update: if the node's priority rose, requeue it.
		if cur := st.priority(v); cur > cand.prio {
			pq.push(heapItem{node: v, prio: cur})
			continue
		}
		st.contract(v, ch)
		ch.rank[v] = nextRank
		nextRank++
	}
	// Materialize upward edges: for every overlay edge recorded during
	// contraction, keep the direction toward the higher rank. (contract
	// already stored edges into ch.up as it removed nodes.)
	return ch, nil
}

func addUndirected(adj []map[roadnet.NodeID]float64, a, b roadnet.NodeID, w float64) {
	if cur, ok := adj[a][b]; !ok || w < cur {
		adj[a][b] = w
		adj[b][a] = w
	}
}

// priority is the standard edge-difference heuristic plus hierarchy
// depth: shortcutsNeeded - degree + level.
func (st *chBuildState) priority(v roadnet.NodeID) float64 {
	shortcuts := st.countShortcuts(v, false, nil)
	return float64(shortcuts-len(st.adj[v])) + float64(st.level[v])
}

// countShortcuts simulates (or with apply=true, performs) the
// contraction of v: for every pair of remaining neighbors (u, x) whose
// shortest u->x path in the overlay minus v is longer than
// w(u,v)+w(v,x), a shortcut is required.
func (st *chBuildState) countShortcuts(v roadnet.NodeID, apply bool, ch *CH) int {
	type nb struct {
		id roadnet.NodeID
		w  float64
	}
	var neighbors []nb
	for u, w := range st.adj[v] {
		neighbors = append(neighbors, nb{u, w})
	}
	count := 0
	for i := 0; i < len(neighbors); i++ {
		u := neighbors[i]
		// One bounded witness search from u covers all pairs (u, x).
		var maxTarget float64
		for j := i + 1; j < len(neighbors); j++ {
			if t := u.w + neighbors[j].w; t > maxTarget {
				maxTarget = t
			}
		}
		if maxTarget == 0 {
			continue
		}
		witness := st.witnessDistances(u.id, v, maxTarget)
		for j := i + 1; j < len(neighbors); j++ {
			x := neighbors[j]
			via := u.w + x.w
			if d, ok := witness[x.id]; ok && d <= via {
				continue // witness path avoids v
			}
			count++
			if apply {
				addUndirected(st.adj, u.id, x.id, via)
			}
		}
	}
	return count
}

// witnessDistances runs a bounded Dijkstra from source in the overlay
// graph excluding `excluded`, out to maxDist, with a settle cap that
// keeps preprocessing near-linear.
func (st *chBuildState) witnessDistances(source, excluded roadnet.NodeID, maxDist float64) map[roadnet.NodeID]float64 {
	const settleCap = 64
	dist := map[roadnet.NodeID]float64{source: 0}
	done := make(map[roadnet.NodeID]bool)
	var h nodeHeap
	h.push(heapItem{node: source, prio: 0})
	settled := 0
	for h.len() > 0 && settled < settleCap {
		it := h.pop()
		if done[it.node] {
			continue
		}
		done[it.node] = true
		settled++
		d := dist[it.node]
		if d > maxDist {
			break
		}
		for nb, w := range st.adj[it.node] {
			if nb == excluded || done[nb] {
				continue
			}
			nd := d + w
			if nd > maxDist {
				continue
			}
			if cur, ok := dist[nb]; !ok || nd < cur {
				dist[nb] = nd
				h.push(heapItem{node: nb, prio: nd})
			}
		}
	}
	return dist
}

// contract removes v from the overlay: its current edges become upward
// edges of v in the hierarchy, and needed shortcuts are inserted.
func (st *chBuildState) contract(v roadnet.NodeID, ch *CH) {
	st.countShortcuts(v, true, ch)
	for u, w := range st.adj[v] {
		// v is contracted before u, so the edge points upward from v.
		ch.up[v] = append(ch.up[v], chEdge{to: u, w: w})
		delete(st.adj[u], v)
		if st.level[u] <= st.level[v] {
			st.level[u] = st.level[v] + 1
		}
	}
	st.adj[v] = nil
	st.deleted[v] = true
}

// NewQuery returns query state for ch. A caller holds one and issues
// all its queries through it, so each query reuses its arrays (see
// CHQuery).
func (ch *CH) NewQuery() *CHQuery {
	n := ch.g.NumNodes()
	return &CHQuery{ch: ch, fwd: newFrontier(n), bwd: newFrontier(n)}
}

// CHQuery is one caller's state for CH queries: per direction, the
// epoch-stamped labels, settle stamps and heap an Engine uses, reused
// across queries, so a query allocates nothing once the heaps have
// grown. The heap sifts exactly as container/heap does, so every
// distance is the float a fresh search computes. Like an Engine, a
// CHQuery is NOT safe for concurrent use; the CH it reads is
// read-only, so CHQuerys on several goroutines may share one CH.
type CHQuery struct {
	ch       *CH
	fwd, bwd frontier
	curEp    uint32
}

// Distance answers an undirected shortest-path distance query via
// bidirectional upward search: the forward search runs first, then the
// backward one, each stopping once its frontier cannot improve the
// best meeting. It returns +Inf when disconnected.
func (q *CHQuery) Distance(from, to roadnet.NodeID) float64 {
	if from == to {
		return 0
	}
	if q.curEp++; q.curEp == 0 { // wrapped: clear stamps and restart
		for _, stamps := range [][]uint32{q.fwd.epoch, q.fwd.settled, q.bwd.epoch, q.bwd.settled} {
			clear(stamps)
		}
		q.curEp = 1
	}
	q.fwd.label(from, 0, q.curEp)
	q.bwd.label(to, 0, q.curEp)
	best := q.search(&q.fwd, &q.bwd, from, math.Inf(1))
	return q.search(&q.bwd, &q.fwd, to, best)
}

// search runs one direction's upward Dijkstra from src, labelled in f,
// and returns the best meeting distance with the labels of other.
func (q *CHQuery) search(f, other *frontier, src roadnet.NodeID, best float64) float64 {
	ep := q.curEp
	f.heap.reset()
	f.heap.push(heapItem{node: src, prio: 0})
	for f.heap.len() > 0 {
		n := f.heap.pop().node
		if f.settled[n] == ep {
			continue
		}
		f.settled[n] = ep
		d := f.dist[n]
		if d >= best {
			break // no shorter meeting possible
		}
		if m := d + other.at(n, ep); m < best {
			best = m
		}
		for _, e := range q.ch.up[n] {
			if nd := d + e.w; nd < f.at(e.to, ep) {
				f.label(e.to, nd, ep)
				f.heap.push(heapItem{node: e.to, prio: nd})
			}
		}
	}
	return best
}
