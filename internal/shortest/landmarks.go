package shortest

import (
	"fmt"
	"math"

	"repro/internal/roadnet"
)

// ALT implements the landmark-based A* heuristic (ALT: A*, Landmarks,
// Triangle inequality). For a landmark L with precomputed distances
// d(L, ·), the triangle inequality gives the admissible bound
//
//	|d(L, t) - d(L, v)| <= d(v, t)
//
// which is often far tighter than the straight-line bound on road
// networks, where routes wind. NEAT's Phase 3 issues many
// point-to-point queries between flow endpoints over one fixed graph,
// exactly the regime landmark preprocessing pays off in; it is an
// extension beyond the paper (which uses plain Dijkstra) and is
// benchmarked as an ablation.
//
// Landmark distances are computed on the undirected view, matching the
// symmetric distance Phase 3 is defined on; the heuristic is only
// admissible for Undirected queries.
type ALT struct {
	g         *roadnet.Graph
	landmarks []roadnet.NodeID
	dist      [][]float64 // dist[i][n] = d(landmarks[i], n), undirected
}

// NewALT selects k landmarks by farthest-point traversal and
// precomputes their shortest-path trees. Preprocessing costs k full
// Dijkstra runs; queries then call Heuristic.
func NewALT(g *roadnet.Graph, k int) (*ALT, error) {
	if k < 1 {
		return nil, fmt.Errorf("shortest: need at least 1 landmark, got %d", k)
	}
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("shortest: empty graph")
	}
	if k > g.NumNodes() {
		k = g.NumNodes()
	}
	eng := New(g, nil)
	a := &ALT{g: g}

	// Farthest-point selection seeded at the node nearest the map
	// center, which keeps selection deterministic.
	center := g.Bounds().Center()
	seed := roadnet.NodeID(0)
	best := math.Inf(1)
	for _, n := range g.Nodes() {
		if d := n.Pt.Dist(center); d < best {
			best = d
			seed = n.ID
		}
	}
	// minDist[n] = distance from n to its closest chosen landmark.
	minDist := make([]float64, g.NumNodes())
	for i := range minDist {
		minDist[i] = math.Inf(1)
	}
	cur := seed
	for i := 0; i < k; i++ {
		tree := eng.Tree(cur, Undirected, math.Inf(1))
		// The first tree only seeds selection: the actual landmark set
		// starts from the farthest node found from the seed.
		if i == 0 {
			far := farthest(tree)
			tree = eng.Tree(far, Undirected, math.Inf(1))
			cur = far
		}
		a.landmarks = append(a.landmarks, cur)
		a.dist = append(a.dist, tree)
		for n, d := range tree {
			if d < minDist[n] {
				minDist[n] = d
			}
		}
		cur = farthestFinite(minDist)
	}
	return a, nil
}

func farthest(dist []float64) roadnet.NodeID {
	var far roadnet.NodeID
	best := -1.0
	for n, d := range dist {
		if !math.IsInf(d, 1) && d > best {
			best = d
			far = roadnet.NodeID(n)
		}
	}
	return far
}

func farthestFinite(minDist []float64) roadnet.NodeID {
	var far roadnet.NodeID
	best := -1.0
	for n, d := range minDist {
		if !math.IsInf(d, 1) && d > best {
			best = d
			far = roadnet.NodeID(n)
		}
	}
	return far
}

// Landmarks returns the selected landmark nodes.
func (a *ALT) Landmarks() []roadnet.NodeID { return a.landmarks }

// Bound returns the ALT lower bound on the undirected network distance
// between u and v: the best triangle-inequality bound over all
// landmarks, at least the Euclidean bound.
func (a *ALT) Bound(u, v roadnet.NodeID) float64 {
	bound := a.g.Node(u).Pt.Dist(a.g.Node(v).Pt)
	for i := range a.landmarks {
		du, dv := a.dist[i][u], a.dist[i][v]
		if math.IsInf(du, 1) || math.IsInf(dv, 1) {
			continue
		}
		if b := math.Abs(du - dv); b > bound {
			bound = b
		}
	}
	return bound
}

// Heuristic returns an admissible A* heuristic toward target for
// Undirected queries.
func (a *ALT) Heuristic(target roadnet.NodeID) func(roadnet.NodeID) float64 {
	return func(n roadnet.NodeID) float64 { return a.Bound(n, target) }
}

// AStarALT runs A* with the ALT heuristic on the undirected view.
func (e *Engine) AStarALT(from, to roadnet.NodeID, alt *ALT) Result {
	return e.pointToPoint(from, to, Undirected, alt.Heuristic(to))
}
