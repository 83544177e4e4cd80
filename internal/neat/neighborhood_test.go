package neat

import (
	"testing"

	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// TestFig1Neighborhood checks Definitions 6 and 7 on the paper's
// worked example: Nf(S1, n2) = {S2, S3, S4} and the maxFlow-neighbor
// of S1 at n2 is S2.
func TestFig1Neighborhood(t *testing.T) {
	f := buildFig1(t)
	bs := FormBaseClusters(f.frags)
	cs := mustClusterSet(t, f.g, bs)
	S1, ok := cs.Get(f.s1)
	if !ok {
		t.Fatal("S1 missing")
	}

	nf := cs.NeighborhoodAt(S1, f.n2)
	if len(nf) != 3 {
		t.Fatalf("Nf(S1, n2) = %v, want 3 clusters", nf)
	}
	want := map[roadnet.SegID]bool{f.s2: true, f.s3: true, f.s4: true}
	for _, b := range nf {
		if !want[b.Seg] {
			t.Errorf("unexpected neighbor %v", b)
		}
	}

	// The other endpoint of s1 (n1) is a dead end: empty neighborhood.
	seg := f.g.Segment(f.s1)
	n1 := seg.OtherEnd(f.n2)
	if got := cs.NeighborhoodAt(S1, n1); len(got) != 0 {
		t.Errorf("Nf(S1, n1) = %v, want empty (dead end)", got)
	}

	// Nf(S1) over both endpoints equals Nf(S1, n2) here.
	if got := cs.Neighborhood(S1); len(got) != 3 {
		t.Errorf("Nf(S1) = %v, want 3", got)
	}

	// maxFlow-neighbor of S1 at n2 is S2 with f = 2.
	mf, flow := cs.MaxFlowNeighbor(S1, f.n2)
	if mf == nil || mf.Seg != f.s2 || flow != 2 {
		t.Errorf("maxFlow(S1, n2) = (%v, %d), want (S2, 2)", mf, flow)
	}
}

func TestNeighborhoodExcludesZeroNetflow(t *testing.T) {
	f := buildFig1(t)
	bs := FormBaseClusters(f.frags)
	cs := mustClusterSet(t, f.g, bs)
	S2, ok := cs.Get(f.s2)
	if !ok {
		t.Fatal("S2 missing")
	}
	// f(S2, S3) = 0, so S3 must not appear in Nf(S2, n2) even though
	// the segments are adjacent.
	for _, b := range cs.NeighborhoodAt(S2, f.n2) {
		if b.Seg == f.s3 {
			t.Error("S3 in Nf(S2, n2) despite zero netflow")
		}
	}
}

func TestNeighborhoodSymmetry(t *testing.T) {
	// The f-neighbor relation is symmetric (noted after Definition 6).
	f := buildFig1(t)
	bs := FormBaseClusters(f.frags)
	cs := mustClusterSet(t, f.g, bs)
	isNeighbor := func(a, b *BaseCluster) bool {
		for _, x := range cs.Neighborhood(a) {
			if x.Seg == b.Seg {
				return true
			}
		}
		return false
	}
	for _, a := range bs {
		for _, b := range bs {
			if a == b {
				continue
			}
			if isNeighbor(a, b) != isNeighbor(b, a) {
				t.Errorf("f-neighbor not symmetric for %v, %v", a, b)
			}
		}
	}
}

func TestMaxFlowNeighborEmpty(t *testing.T) {
	f := buildFig1(t)
	bs := FormBaseClusters(f.frags)
	cs := mustClusterSet(t, f.g, bs)
	S3, ok := cs.Get(f.s3)
	if !ok {
		t.Fatal("S3 missing")
	}
	seg := f.g.Segment(f.s3)
	deadEnd := seg.OtherEnd(f.n2)
	if mf, flow := cs.MaxFlowNeighbor(S3, deadEnd); mf != nil || flow != 0 {
		t.Errorf("maxFlow at dead end = (%v, %d), want (nil, 0)", mf, flow)
	}
}

func mustClusterSet(t *testing.T, g *roadnet.Graph, bs []*BaseCluster) *ClusterSet {
	t.Helper()
	cs, err := NewClusterSet(g, bs)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// TestClusterSetRejectsBadIndex: the set and Phase 2 index clusters by
// segment, so a second cluster on one segment or a cluster off the
// graph is an error, as is a fragment off the graph in a plan's input.
func TestClusterSetRejectsBadIndex(t *testing.T) {
	f := buildFig1(t)
	bs := FormBaseClusters(f.frags)
	off := RestoreBaseCluster(roadnet.SegID(f.g.NumSegments()), bs[0].Fragments)
	for _, in := range [][]*BaseCluster{
		{bs[0], bs[1], RestoreBaseCluster(bs[1].Seg, bs[1].Fragments)},
		{bs[0], off},
	} {
		if _, err := NewClusterSet(f.g, in); err == nil {
			t.Errorf("NewClusterSet accepted %v", in)
		}
		if _, _, err := FormFlowClusters(f.g, in, FlowConfig{}); err == nil {
			t.Errorf("FormFlowClusters accepted %v", in)
		}
	}
	if _, ok := mustClusterSet(t, f.g, bs).Get(-1); ok {
		t.Error("Get(-1) found a cluster")
	}

	frags := append([]traj.TFragment{}, f.frags...)
	frags[len(frags)-1].Seg = roadnet.SegID(f.g.NumSegments())
	plan, err := NewPlan(DefaultConfig(), LevelBase, FromFragments, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPipeline(f.g).RunPlan(plan, Input{Fragments: frags}); err == nil {
		t.Error("plan accepted a fragment off the graph")
	}
}

// TestNeighborhoodParallelSegments: a segment parallel to S's meets it
// at both ends, so it is in Nf(S, ni) and Nf(S, nj) but once in Nf(S).
func TestNeighborhoodParallelSegments(t *testing.T) {
	var b roadnet.Builder
	ni := b.AddJunction(geo.Pt(0, 0))
	nj := b.AddJunction(geo.Pt(100, 0))
	s1, _ := b.AddSegment(ni, nj, roadnet.SegmentOpts{})
	s2, _ := b.AddSegment(ni, nj, roadnet.SegmentOpts{})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	bs := FormBaseClusters([]traj.TFragment{{Traj: 1, Seg: s1}, {Traj: 1, Seg: s2, Index: 1}})
	cs := mustClusterSet(t, g, bs)
	S1, _ := cs.Get(s1)
	for _, nu := range []roadnet.NodeID{ni, nj} {
		if got := cs.NeighborhoodAt(S1, nu); len(got) != 1 || got[0].Seg != s2 {
			t.Errorf("Nf(S1, %d) = %v, want [S2]", nu, got)
		}
	}
	if got := cs.Neighborhood(S1); len(got) != 1 || got[0].Seg != s2 {
		t.Errorf("Nf(S1) = %v, want [S2] once", got)
	}
}
