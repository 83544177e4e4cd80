// Package spatial provides a spatial index over road-network segments:
// a uniform grid for fast nearest-segment lookups (the map matcher's
// candidate generator) and radius queries.
package spatial

import (
	"fmt"
	"math"

	"repro/internal/geo"
	"repro/internal/roadnet"
)

// Grid is a uniform spatial hash of road segments. It answers
// nearest-segment and radius queries by scanning expanding rings of
// cells around the query point.
type Grid struct {
	g        *roadnet.Graph
	cellSize float64
	origin   geo.Point
	nx, ny   int
	cells    [][]roadnet.SegID
}

// NewGrid indexes all segments of g into cells of the given size in
// meters. A cell size near the average segment length (Table I: 125 to
// 170 m) keeps both the cell count and the per-cell occupancy small.
func NewGrid(g *roadnet.Graph, cellSize float64) (*Grid, error) {
	if cellSize <= 0 {
		return nil, fmt.Errorf("spatial: cell size must be positive, got %g", cellSize)
	}
	b := g.Bounds()
	if b.Empty() {
		return nil, fmt.Errorf("spatial: graph has empty bounds")
	}
	// Pad by one cell so boundary points fall inside the grid.
	b = b.Expand(cellSize)
	gr := &Grid{
		g:        g,
		cellSize: cellSize,
		origin:   b.Min,
		nx:       int(math.Ceil(b.Width()/cellSize)) + 1,
		ny:       int(math.Ceil(b.Height()/cellSize)) + 1,
	}
	gr.cells = make([][]roadnet.SegID, gr.nx*gr.ny)
	for _, s := range g.Segments() {
		gr.insert(s.ID)
	}
	return gr, nil
}

func (gr *Grid) cellOf(p geo.Point) (int, int) {
	cx := int((p.X - gr.origin.X) / gr.cellSize)
	cy := int((p.Y - gr.origin.Y) / gr.cellSize)
	return cx, cy
}

func (gr *Grid) clampCell(cx, cy int) (int, int) {
	if cx < 0 {
		cx = 0
	}
	if cx >= gr.nx {
		cx = gr.nx - 1
	}
	if cy < 0 {
		cy = 0
	}
	if cy >= gr.ny {
		cy = gr.ny - 1
	}
	return cx, cy
}

func (gr *Grid) insert(sid roadnet.SegID) {
	gs := gr.g.SegmentGeometry(sid)
	r := geo.RectFromPoints(gs.A, gs.B)
	x0, y0 := gr.clampCell(gr.cellOf(r.Min))
	x1, y1 := gr.clampCell(gr.cellOf(r.Max))
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			idx := cy*gr.nx + cx
			// Only keep the segment in cells its geometry actually
			// approaches, to bound per-cell occupancy.
			cell := geo.Rect{
				Min: geo.Pt(gr.origin.X+float64(cx)*gr.cellSize, gr.origin.Y+float64(cy)*gr.cellSize),
				Max: geo.Pt(gr.origin.X+float64(cx+1)*gr.cellSize, gr.origin.Y+float64(cy+1)*gr.cellSize),
			}
			if gs.DistToPoint(cell.Center()) <= gr.cellSize {
				gr.cells[idx] = append(gr.cells[idx], sid)
			}
		}
	}
}

// Nearest returns the segment closest to p, the snapped location on it,
// and the snap distance. ok is false only for an index over an empty
// graph.
func (gr *Grid) Nearest(p geo.Point) (loc roadnet.Location, dist float64, ok bool) {
	locs := gr.KNearest(p, 1)
	if len(locs) == 0 {
		return roadnet.Location{}, math.Inf(1), false
	}
	l := locs[0]
	return l.Loc, l.Dist, true
}

// Candidate is a segment candidate returned by KNearest / Within.
type Candidate struct {
	Loc  roadnet.Location
	Dist float64
}

// KNearest returns up to k segments closest to p, nearest first.
func (gr *Grid) KNearest(p geo.Point, k int) []Candidate {
	if k <= 0 {
		return nil
	}
	cx, cy := gr.clampCell(gr.cellOf(p))
	maxRing := gr.nx
	if gr.ny > maxRing {
		maxRing = gr.ny
	}
	best := make([]Candidate, 0, k)
	seen := make(map[roadnet.SegID]struct{})
	consider := func(sid roadnet.SegID) {
		if _, dup := seen[sid]; dup {
			return
		}
		seen[sid] = struct{}{}
		loc, d := gr.g.Locate(sid, p)
		// Insertion sort into the k-best list.
		if len(best) < k || d < best[len(best)-1].Dist {
			c := Candidate{Loc: loc, Dist: d}
			pos := len(best)
			for pos > 0 && best[pos-1].Dist > d {
				pos--
			}
			if len(best) < k {
				best = append(best, Candidate{})
			}
			copy(best[pos+1:], best[pos:])
			best[pos] = c
		}
	}
	for ring := 0; ring <= maxRing; ring++ {
		// Once we have k results, stop when the ring's minimum possible
		// distance exceeds the current kth distance.
		if len(best) == k {
			minPossible := float64(ring-1) * gr.cellSize
			if minPossible > best[len(best)-1].Dist {
				break
			}
		}
		gr.forEachRingCell(cx, cy, ring, func(idx int) {
			for _, sid := range gr.cells[idx] {
				consider(sid)
			}
		})
	}
	return best
}

// Within returns all segments whose snapped distance to p is at most
// radius, nearest first.
func (gr *Grid) Within(p geo.Point, radius float64) []Candidate {
	cx, cy := gr.clampCell(gr.cellOf(p))
	rings := int(math.Ceil(radius/gr.cellSize)) + 1
	var out []Candidate
	seen := make(map[roadnet.SegID]struct{})
	for ring := 0; ring <= rings; ring++ {
		gr.forEachRingCell(cx, cy, ring, func(idx int) {
			for _, sid := range gr.cells[idx] {
				if _, dup := seen[sid]; dup {
					continue
				}
				seen[sid] = struct{}{}
				loc, d := gr.g.Locate(sid, p)
				if d <= radius {
					out = append(out, Candidate{Loc: loc, Dist: d})
				}
			}
		})
	}
	sortCandidates(out)
	return out
}

func sortCandidates(cs []Candidate) {
	// Small result sets dominate; insertion sort keeps this allocation
	// free and deterministic (ties broken by segment id).
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0; j-- {
			a, b := cs[j-1], cs[j]
			if b.Dist < a.Dist || (b.Dist == a.Dist && b.Loc.Seg < a.Loc.Seg) {
				cs[j-1], cs[j] = b, a
			} else {
				break
			}
		}
	}
}

// forEachRingCell visits the cells on the square ring at Chebyshev
// distance ring from (cx, cy), clipped to the grid.
func (gr *Grid) forEachRingCell(cx, cy, ring int, visit func(idx int)) {
	if ring == 0 {
		visit(cy*gr.nx + cx)
		return
	}
	x0, x1 := cx-ring, cx+ring
	y0, y1 := cy-ring, cy+ring
	for x := x0; x <= x1; x++ {
		if x < 0 || x >= gr.nx {
			continue
		}
		if y0 >= 0 {
			visit(y0*gr.nx + x)
		}
		if y1 < gr.ny {
			visit(y1*gr.nx + x)
		}
	}
	for y := y0 + 1; y < y1; y++ {
		if y < 0 || y >= gr.ny {
			continue
		}
		if x0 >= 0 {
			visit(y*gr.nx + x0)
		}
		if x1 < gr.nx {
			visit(y*gr.nx + x1)
		}
	}
}
