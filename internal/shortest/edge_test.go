package shortest

import (
	"math"
	"testing"

	"repro/internal/geo"
	"repro/internal/roadnet"
)

func TestLocationRouteUnreachable(t *testing.T) {
	// Two disconnected components.
	var b roadnet.Builder
	n0 := b.AddJunction(geo.Pt(0, 0))
	n1 := b.AddJunction(geo.Pt(100, 0))
	n2 := b.AddJunction(geo.Pt(9000, 0))
	n3 := b.AddJunction(geo.Pt(9100, 0))
	s0, _ := b.AddSegment(n0, n1, roadnet.SegmentOpts{})
	s1, _ := b.AddSegment(n2, n3, roadnet.SegmentOpts{})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := New(g, nil)
	a := g.At(s0, 50)
	bb := g.At(s1, 50)
	d, _, err := e.LocationRoute(a, bb, Directed)
	if err == nil {
		t.Error("disconnected LocationRoute succeeded")
	}
	if !math.IsInf(d, 1) {
		t.Errorf("disconnected distance = %v", d)
	}
}

func TestBidirectionalSelfAndAdjacent(t *testing.T) {
	g, at := buildGrid(t, 4, 4)
	e := New(g, nil)
	if d := e.Bidirectional(at(1, 1), at(1, 1), Undirected); d != 0 {
		t.Errorf("self = %v", d)
	}
	if d := e.Bidirectional(at(0, 0), at(1, 0), Undirected); d != 100 {
		t.Errorf("adjacent = %v", d)
	}
}

func TestBoundedDistanceZeroBudget(t *testing.T) {
	g, at := buildGrid(t, 3, 3)
	e := New(g, nil)
	if d := e.BoundedDistance(at(0, 0), at(1, 0), Undirected, 0); !math.IsInf(d, 1) {
		t.Errorf("zero-budget bounded = %v", d)
	}
	if d := e.BoundedDistance(at(0, 0), at(0, 0), Undirected, 0); d != 0 {
		t.Errorf("zero-budget self = %v", d)
	}
}

func TestResultReachable(t *testing.T) {
	r := Result{Dist: math.Inf(1)}
	if r.Reachable() {
		t.Error("infinite result reachable")
	}
	r.Dist = 5
	if !r.Reachable() {
		t.Error("finite result unreachable")
	}
}

func TestStatsSharedAcrossEngines(t *testing.T) {
	g, at := buildGrid(t, 3, 3)
	shared := &Stats{}
	e1 := New(g, shared)
	e2 := New(g, shared)
	e1.AStar(at(0, 0), at(2, 2), Undirected)
	e2.AStar(at(2, 2), at(0, 0), Undirected)
	if q, _ := shared.Snapshot(); q != 2 {
		t.Errorf("shared queries = %d, want 2", q)
	}
}
