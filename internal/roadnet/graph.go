// Package roadnet implements the road-network reference model of the
// NEAT paper (§II-A): a directed graph G = (V, E) of junction nodes and
// road segments. A physical road segment is identified by a SegID (the
// paper's sid); a bidirectional segment contributes two directed edges
// that share the same sid.
//
// The package exposes both views needed by the NEAT algorithms:
//
//   - the directed-edge view used for routing and mobility simulation
//     (internal/shortest, internal/mobisim), and
//   - the undirected segment view used for clustering, where the paper's
//     operations L(e), Ln(e) and I(ei, ej) are defined on road segments
//     regardless of travel direction.
package roadnet

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/geo"
)

// NodeID identifies a junction node in the graph.
type NodeID int32

// SegID identifies a physical road segment (the paper's sid). Both
// directed edges of a bidirectional segment carry the same SegID.
type SegID int32

// EdgeID indexes a directed edge.
type EdgeID int32

// NoNode is the sentinel for "no junction".
const NoNode NodeID = -1

// NoSeg is the sentinel for "no segment".
const NoSeg SegID = -1

// RoadClass is a coarse functional classification of a road segment,
// used by the map generator to assign speed limits and by applications
// to weight flows.
type RoadClass uint8

// Road classes in decreasing order of capacity.
const (
	ClassHighway RoadClass = iota
	ClassArterial
	ClassCollector
	ClassLocal
)

// String implements fmt.Stringer.
func (c RoadClass) String() string {
	switch c {
	case ClassHighway:
		return "highway"
	case ClassArterial:
		return "arterial"
	case ClassCollector:
		return "collector"
	case ClassLocal:
		return "local"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// DefaultSpeed returns a conventional speed limit in m/s for the class.
func (c RoadClass) DefaultSpeed() float64 {
	switch c {
	case ClassHighway:
		return 29.1 // ~65 mph
	case ClassArterial:
		return 20.1 // ~45 mph
	case ClassCollector:
		return 15.6 // ~35 mph
	default:
		return 11.2 // ~25 mph
	}
}

// Junction is a node of the road graph.
type Junction struct {
	ID NodeID
	Pt geo.Point
}

// Edge is one directed edge of the graph: travel from From to To along
// road segment Seg.
type Edge struct {
	ID     EdgeID
	Seg    SegID
	From   NodeID
	To     NodeID
	Length float64 // meters
}

// Segment is the undirected (physical) view of a road segment: the
// paper's e = (sid, ni nj). NI and NJ are its two endpoint junctions in
// canonical orientation; Bidirectional records whether travel is allowed
// both ways.
type Segment struct {
	ID            SegID
	NI, NJ        NodeID
	Length        float64 // meters
	SpeedLimit    float64 // m/s
	Class         RoadClass
	Bidirectional bool
}

// OtherEnd returns the endpoint of s that is not n. It returns NoNode
// when n is not an endpoint of s.
func (s Segment) OtherEnd(n NodeID) NodeID {
	switch n {
	case s.NI:
		return s.NJ
	case s.NJ:
		return s.NI
	default:
		return NoNode
	}
}

// HasEnd reports whether n is an endpoint of s.
func (s Segment) HasEnd(n NodeID) bool { return n == s.NI || n == s.NJ }

// Graph is an immutable road network. Construct one with a Builder.
type Graph struct {
	nodes    []Junction
	edges    []Edge
	segments []Segment

	out [][]EdgeID // outgoing directed edges per node
	in  [][]EdgeID // incoming directed edges per node

	segsAt  [][]SegID // incident segments (sids) per node
	bounds  geo.Rect
	totalLn float64

	// fp memoizes Fingerprint; the graph is immutable after Build, so
	// the hash is computed at most once.
	fpOnce sync.Once
	fp     string
}

// NumNodes returns the number of junctions.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// NumSegments returns the number of physical road segments (distinct
// sids). This is the "# Segments" column of Table I.
func (g *Graph) NumSegments() int { return len(g.segments) }

// Node returns the junction with the given id.
func (g *Graph) Node(id NodeID) Junction { return g.nodes[id] }

// Edge returns the directed edge with the given id.
func (g *Graph) Edge(id EdgeID) Edge { return g.edges[id] }

// Segment returns the physical road segment with the given sid.
func (g *Graph) Segment(id SegID) Segment { return g.segments[id] }

// Nodes returns the junction slice; callers must not modify it.
func (g *Graph) Nodes() []Junction { return g.nodes }

// Edges returns the directed edge slice; callers must not modify it.
func (g *Graph) Edges() []Edge { return g.edges }

// Segments returns the segment slice; callers must not modify it.
func (g *Graph) Segments() []Segment { return g.segments }

// Out returns the outgoing directed edges of node n; callers must not
// modify the returned slice.
func (g *Graph) Out(n NodeID) []EdgeID { return g.out[n] }

// In returns the incoming directed edges of node n; callers must not
// modify the returned slice.
func (g *Graph) In(n NodeID) []EdgeID { return g.in[n] }

// SegmentsAt returns the sids of the segments incident to junction n;
// callers must not modify the returned slice. The length of this slice
// is the junction degree reported in Table I.
func (g *Graph) SegmentsAt(n NodeID) []SegID { return g.segsAt[n] }

// Degree returns the number of physical segments incident to n.
func (g *Graph) Degree(n NodeID) int { return len(g.segsAt[n]) }

// Bounds returns the bounding rectangle of all junction coordinates.
func (g *Graph) Bounds() geo.Rect { return g.bounds }

// TotalLength returns the summed length of all physical segments in
// meters (Table I's "Total length").
func (g *Graph) TotalLength() float64 { return g.totalLn }

// Adjacent implements the paper's L(e): the set of segments sharing an
// endpoint with segment s, excluding s itself.
func (g *Graph) Adjacent(s SegID) []SegID {
	seg := g.segments[s]
	ni := g.AdjacentAt(s, seg.NI)
	nj := g.AdjacentAt(s, seg.NJ)
	out := make([]SegID, 0, len(ni)+len(nj))
	out = append(out, ni...)
	out = append(out, nj...)
	return out
}

// AdjacentAt implements the paper's Ln(e): the segments adjacent to s
// that connect to it at junction n, excluding s itself. It returns nil
// when n is not an endpoint of s (e.g. a dead end yields the empty set).
func (g *Graph) AdjacentAt(s SegID, n NodeID) []SegID {
	seg := g.segments[s]
	if !seg.HasEnd(n) {
		return nil
	}
	var out []SegID
	for _, sid := range g.segsAt[n] {
		if sid != s {
			out = append(out, sid)
		}
	}
	return out
}

// Intersection implements the paper's I(ei, ej): the junction at which
// two adjacent segments meet. It returns (NoNode, false) when the
// segments are not adjacent. When two segments share both endpoints
// (parallel roads), the canonical NI endpoint is returned.
func (g *Graph) Intersection(a, b SegID) (NodeID, bool) {
	sa, sb := g.segments[a], g.segments[b]
	if sb.HasEnd(sa.NI) {
		return sa.NI, true
	}
	if sb.HasEnd(sa.NJ) {
		return sa.NJ, true
	}
	return NoNode, false
}

// SegmentGeometry returns the straight-line geometry of segment s in
// canonical orientation (NI -> NJ).
func (g *Graph) SegmentGeometry(s SegID) geo.Segment {
	seg := g.segments[s]
	return geo.Seg(g.nodes[seg.NI].Pt, g.nodes[seg.NJ].Pt)
}

// EdgeGeometry returns the directed geometry of edge e (From -> To).
func (g *Graph) EdgeGeometry(e EdgeID) geo.Segment {
	ed := g.edges[e]
	return geo.Seg(g.nodes[ed.From].Pt, g.nodes[ed.To].Pt)
}

// TravelTime returns the minimum traversal time of segment s in seconds
// at its speed limit.
func (g *Graph) TravelTime(s SegID) float64 {
	seg := g.segments[s]
	if seg.SpeedLimit <= 0 {
		return math.Inf(1)
	}
	return seg.Length / seg.SpeedLimit
}

// Builder incrementally constructs a Graph. The zero value is ready to
// use.
type Builder struct {
	nodes []Junction
	specs []segSpec
}

type segSpec struct {
	ni, nj NodeID
	speed  float64
	class  RoadClass
	oneway bool
}

// AddJunction appends a junction at p and returns its id.
func (b *Builder) AddJunction(p geo.Point) NodeID {
	id := NodeID(len(b.nodes))
	b.nodes = append(b.nodes, Junction{ID: id, Pt: p})
	return id
}

// SegmentOpts configures a segment added to the builder.
type SegmentOpts struct {
	// SpeedLimit in m/s; when zero the class default applies.
	SpeedLimit float64
	// Class of the road; defaults to ClassLocal.
	Class RoadClass
	// OneWay restricts travel to the ni -> nj direction.
	OneWay bool
}

// AddSegment appends a road segment between junctions ni and nj and
// returns its sid. Both junctions must already exist.
func (b *Builder) AddSegment(ni, nj NodeID, opts SegmentOpts) (SegID, error) {
	if int(ni) >= len(b.nodes) || ni < 0 {
		return NoSeg, fmt.Errorf("roadnet: junction %d does not exist", ni)
	}
	if int(nj) >= len(b.nodes) || nj < 0 {
		return NoSeg, fmt.Errorf("roadnet: junction %d does not exist", nj)
	}
	if ni == nj {
		return NoSeg, fmt.Errorf("roadnet: self-loop at junction %d", ni)
	}
	speed := opts.SpeedLimit
	if speed <= 0 {
		speed = opts.Class.DefaultSpeed()
	}
	id := SegID(len(b.specs))
	b.specs = append(b.specs, segSpec{ni: ni, nj: nj, speed: speed, class: opts.Class, oneway: opts.OneWay})
	return id, nil
}

// Build freezes the builder into an immutable Graph. The builder may be
// reused afterwards, but segments and junctions added later do not
// affect the built graph.
func (b *Builder) Build() (*Graph, error) {
	if len(b.nodes) == 0 {
		return nil, fmt.Errorf("roadnet: graph has no junctions")
	}
	for _, n := range b.nodes {
		if math.IsNaN(n.Pt.X) || math.IsNaN(n.Pt.Y) || math.IsInf(n.Pt.X, 0) || math.IsInf(n.Pt.Y, 0) {
			return nil, fmt.Errorf("roadnet: junction %d has non-finite coordinates %v", n.ID, n.Pt)
		}
	}
	g := &Graph{
		nodes:    append([]Junction(nil), b.nodes...),
		segments: make([]Segment, 0, len(b.specs)),
		out:      make([][]EdgeID, len(b.nodes)),
		in:       make([][]EdgeID, len(b.nodes)),
		segsAt:   make([][]SegID, len(b.nodes)),
		bounds:   geo.EmptyRect(),
	}
	for _, n := range g.nodes {
		g.bounds = g.bounds.Extend(n.Pt)
	}
	for i, sp := range b.specs {
		sid := SegID(i)
		length := g.nodes[sp.ni].Pt.Dist(g.nodes[sp.nj].Pt)
		if length == 0 {
			return nil, fmt.Errorf("roadnet: zero-length segment %d between coincident junctions %d and %d", sid, sp.ni, sp.nj)
		}
		g.segments = append(g.segments, Segment{
			ID: sid, NI: sp.ni, NJ: sp.nj,
			Length: length, SpeedLimit: sp.speed, Class: sp.class,
			Bidirectional: !sp.oneway,
		})
		g.totalLn += length
		g.addEdge(sid, sp.ni, sp.nj, length)
		if !sp.oneway {
			g.addEdge(sid, sp.nj, sp.ni, length)
		}
		g.segsAt[sp.ni] = append(g.segsAt[sp.ni], sid)
		g.segsAt[sp.nj] = append(g.segsAt[sp.nj], sid)
	}
	// Deterministic adjacency order regardless of insertion order.
	for n := range g.segsAt {
		s := g.segsAt[n]
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}
	return g, nil
}

func (g *Graph) addEdge(sid SegID, from, to NodeID, length float64) {
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, Edge{ID: id, Seg: sid, From: from, To: to, Length: length})
	g.out[from] = append(g.out[from], id)
	g.in[to] = append(g.in[to], id)
}
