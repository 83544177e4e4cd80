package roadnet

import (
	"testing"

	"repro/internal/geo"
)

// buildFig1Graph constructs the star network of the paper's Figure
// 1(b): junctions n1..n5 with segments n1n2, n2n3, n2n4, n2n5 all
// meeting at n2.
func buildFig1Graph(t *testing.T) (*Graph, []NodeID, []SegID) {
	t.Helper()
	var b Builder
	n1 := b.AddJunction(geo.Pt(0, 0))
	n2 := b.AddJunction(geo.Pt(100, 0))
	n3 := b.AddJunction(geo.Pt(200, 0))
	n4 := b.AddJunction(geo.Pt(100, 100))
	n5 := b.AddJunction(geo.Pt(100, -100))
	s1, err := b.AddSegment(n1, n2, SegmentOpts{})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := b.AddSegment(n2, n3, SegmentOpts{})
	if err != nil {
		t.Fatal(err)
	}
	s3, err := b.AddSegment(n2, n4, SegmentOpts{})
	if err != nil {
		t.Fatal(err)
	}
	s4, err := b.AddSegment(n2, n5, SegmentOpts{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, []NodeID{n1, n2, n3, n4, n5}, []SegID{s1, s2, s3, s4}
}

func TestBuilderBasics(t *testing.T) {
	g, nodes, segs := buildFig1Graph(t)
	if g.NumNodes() != 5 {
		t.Errorf("NumNodes = %d", g.NumNodes())
	}
	if g.NumSegments() != 4 {
		t.Errorf("NumSegments = %d", g.NumSegments())
	}
	if g.NumEdges() != 8 { // all bidirectional
		t.Errorf("NumEdges = %d", g.NumEdges())
	}
	if got := g.Segment(segs[0]).Length; got != 100 {
		t.Errorf("segment length = %v", got)
	}
	if g.TotalLength() != 400 {
		t.Errorf("TotalLength = %v", g.TotalLength())
	}
	if d := g.Degree(nodes[1]); d != 4 {
		t.Errorf("degree(n2) = %d", d)
	}
	if d := g.Degree(nodes[0]); d != 1 {
		t.Errorf("degree(n1) = %d", d)
	}
}

func TestBuilderErrors(t *testing.T) {
	var b Builder
	n1 := b.AddJunction(geo.Pt(0, 0))
	if _, err := b.AddSegment(n1, n1, SegmentOpts{}); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := b.AddSegment(n1, 99, SegmentOpts{}); err == nil {
		t.Error("missing junction accepted")
	}
	if _, err := (&Builder{}).Build(); err == nil {
		t.Error("empty graph accepted")
	}
	// Coincident junctions produce a zero-length segment.
	var b2 Builder
	a := b2.AddJunction(geo.Pt(1, 1))
	c := b2.AddJunction(geo.Pt(1, 1))
	if _, err := b2.AddSegment(a, c, SegmentOpts{}); err != nil {
		t.Fatal(err)
	}
	if _, err := b2.Build(); err == nil {
		t.Error("zero-length segment accepted at Build")
	}
}

func TestAdjacency(t *testing.T) {
	g, nodes, segs := buildFig1Graph(t)
	n1, n2 := nodes[0], nodes[1]
	s1 := segs[0]

	// L(e) of s1 is {s2, s3, s4}, all at n2.
	adj := g.Adjacent(s1)
	if len(adj) != 3 {
		t.Fatalf("Adjacent(s1) = %v", adj)
	}
	// Ln1(s1) is empty: n1 is a dead end.
	if got := g.AdjacentAt(s1, n1); len(got) != 0 {
		t.Errorf("AdjacentAt(s1, n1) = %v, want empty (dead end)", got)
	}
	if got := g.AdjacentAt(s1, n2); len(got) != 3 {
		t.Errorf("AdjacentAt(s1, n2) = %v, want 3", got)
	}
	// A junction that is not an endpoint yields nil.
	if got := g.AdjacentAt(s1, nodes[4]); got != nil {
		t.Errorf("AdjacentAt with non-endpoint = %v, want nil", got)
	}
}

func TestIntersection(t *testing.T) {
	g, nodes, segs := buildFig1Graph(t)
	j, ok := g.Intersection(segs[0], segs[1])
	if !ok || j != nodes[1] {
		t.Errorf("Intersection(s1,s2) = (%v,%v), want (n2,true)", j, ok)
	}
	// s2 (n2n3) and... all segments share n2; build a disjoint pair.
	var b Builder
	a1 := b.AddJunction(geo.Pt(0, 0))
	a2 := b.AddJunction(geo.Pt(1, 0))
	a3 := b.AddJunction(geo.Pt(5, 0))
	a4 := b.AddJunction(geo.Pt(6, 0))
	sA, _ := b.AddSegment(a1, a2, SegmentOpts{})
	sB, _ := b.AddSegment(a3, a4, SegmentOpts{})
	g2, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g2.Intersection(sA, sB); ok {
		t.Error("non-adjacent segments reported adjacent")
	}
}

func TestOneWayEdges(t *testing.T) {
	var b Builder
	n1 := b.AddJunction(geo.Pt(0, 0))
	n2 := b.AddJunction(geo.Pt(10, 0))
	if _, err := b.AddSegment(n1, n2, SegmentOpts{OneWay: true}); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("one-way segment produced %d edges", g.NumEdges())
	}
	if out := g.Out(n1); len(out) != 1 || g.Edge(out[0]).To != n2 {
		t.Error("forward edge missing")
	}
	if len(g.Out(n2)) != 0 {
		t.Error("reverse edge exists for one-way segment")
	}
	if len(g.In(n2)) != 1 {
		t.Error("n2 missing incoming edge")
	}
}

func TestSegmentOtherEnd(t *testing.T) {
	s := Segment{ID: 0, NI: 3, NJ: 7}
	if s.OtherEnd(3) != 7 || s.OtherEnd(7) != 3 {
		t.Error("OtherEnd wrong for endpoints")
	}
	if s.OtherEnd(5) != NoNode {
		t.Error("OtherEnd of non-endpoint should be NoNode")
	}
	if !s.HasEnd(3) || !s.HasEnd(7) || s.HasEnd(5) {
		t.Error("HasEnd wrong")
	}
}

func TestLocationAtAndLocate(t *testing.T) {
	g, nodes, segs := buildFig1Graph(t)
	// At clamps offsets.
	l := g.At(segs[0], 50)
	if l.Pt != geo.Pt(50, 0) || l.Offset != 50 {
		t.Errorf("At(s1,50) = %+v", l)
	}
	if l := g.At(segs[0], -10); l.Offset != 0 {
		t.Errorf("negative offset not clamped: %+v", l)
	}
	if l := g.At(segs[0], 1e9); l.Offset != 100 {
		t.Errorf("overlong offset not clamped: %+v", l)
	}
	// Locate snaps.
	loc, d := g.Locate(segs[0], geo.Pt(30, 40))
	if loc.Pt != geo.Pt(30, 0) || d != 40 {
		t.Errorf("Locate = %+v dist %v", loc, d)
	}
	// AtNode for both endpoints and an error case.
	if l, err := g.AtNode(segs[0], nodes[0]); err != nil || l.Offset != 0 {
		t.Errorf("AtNode(NI) = %+v, %v", l, err)
	}
	if l, err := g.AtNode(segs[0], nodes[1]); err != nil || l.Offset != 100 {
		t.Errorf("AtNode(NJ) = %+v, %v", l, err)
	}
	if _, err := g.AtNode(segs[0], nodes[4]); err == nil {
		t.Error("AtNode with non-endpoint succeeded")
	}
}

func TestDistAlongAndNearestEndpoint(t *testing.T) {
	g, _, segs := buildFig1Graph(t)
	a := g.At(segs[0], 20)
	b := g.At(segs[0], 70)
	d, err := DistAlong(a, b)
	if err != nil || d != 50 {
		t.Errorf("DistAlong = %v, %v", d, err)
	}
	c := g.At(segs[1], 10)
	if _, err := DistAlong(a, c); err == nil {
		t.Error("DistAlong across segments succeeded")
	}
	n, dist := g.NearestEndpoint(a)
	if n != g.Segment(segs[0]).NI || dist != 20 {
		t.Errorf("NearestEndpoint = %v, %v", n, dist)
	}
	n, dist = g.NearestEndpoint(b)
	if n != g.Segment(segs[0]).NJ || dist != 30 {
		t.Errorf("NearestEndpoint = %v, %v", n, dist)
	}
}

func TestStats(t *testing.T) {
	g, _, _ := buildFig1Graph(t)
	s := ComputeStats(g)
	if s.NumJunctions != 5 || s.NumSegments != 4 {
		t.Errorf("stats = %+v", s)
	}
	if s.MaxDegree != 4 {
		t.Errorf("MaxDegree = %d", s.MaxDegree)
	}
	if want := 2.0 * 4 / 5; s.AvgDegree != want {
		t.Errorf("AvgDegree = %v, want %v", s.AvgDegree, want)
	}
	if s.TotalLengthKm != 0.4 {
		t.Errorf("TotalLengthKm = %v", s.TotalLengthKm)
	}
	count, largest := ConnectedComponents(g)
	if count != 1 || largest != 5 {
		t.Errorf("components = %d largest %d", count, largest)
	}
}
