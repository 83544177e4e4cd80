package neat

import (
	"testing"

	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// TestFlowClusterNetflowTieBreak exercises the §III-B2 provision:
// "when there are more than one base clusters meeting the f-neighbor
// merging criteria ... we can consider the netflows between the flow
// cluster under consideration ... and the candidate base clusters."
//
// Layout:  n0 -(s0)- n1 -(s1)- n2 -(sB)- n4
//
//	\-(sA)- n3
//
// The seed S1 (densest) first absorbs S0, then faces candidates A and
// B at n2 with identical merging selectivity (equal netflow to S1,
// equal density, equal speed). A shares an extra trajectory with S0 —
// so f(F, A) = 3 beats f(F, B) = 2 and A must win even though B's
// lower segment id would win the final fallback.
func TestFlowClusterNetflowTieBreak(t *testing.T) {
	var b roadnet.Builder
	n0 := b.AddJunction(geo.Pt(0, 0))
	n1 := b.AddJunction(geo.Pt(100, 0))
	n2 := b.AddJunction(geo.Pt(200, 0))
	n3 := b.AddJunction(geo.Pt(300, 60))
	n4 := b.AddJunction(geo.Pt(300, -60))
	s0, _ := b.AddSegment(n0, n1, roadnet.SegmentOpts{})
	// Built n2 -> n1 so the seed's first (back) expansion runs toward
	// n1 and absorbs S0 before the contested n2 expansion.
	s1, _ := b.AddSegment(n2, n1, roadnet.SegmentOpts{})
	sB, _ := b.AddSegment(n2, n4, roadnet.SegmentOpts{}) // lower sid than sA
	sA, _ := b.AddSegment(n2, n3, roadnet.SegmentOpts{})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	frag := func(id traj.ID, s roadnet.SegID, idx int) traj.TFragment {
		gs := g.SegmentGeometry(s)
		return traj.TFragment{Traj: id, Seg: s, Index: idx,
			Points: []traj.Location{traj.Sample(s, gs.A, float64(idx)), traj.Sample(s, gs.B, float64(idx)+1)}}
	}
	var frags []traj.TFragment
	// S1 (seed, density 6): T1..T6.
	for id := traj.ID(1); id <= 6; id++ {
		frags = append(frags, frag(id, s1, 1))
	}
	// S0 (density 5): T1..T4 plus T7.
	for _, id := range []traj.ID{1, 2, 3, 4, 7} {
		frags = append(frags, frag(id, s0, 0))
	}
	// A (density 3): T1, T5 (shared with S1) and T7 (shared with S0).
	for _, id := range []traj.ID{1, 5, 7} {
		frags = append(frags, frag(id, sA, 2))
	}
	// B (density 3): T3, T6 (shared with S1) and T8 (unshared).
	for _, id := range []traj.ID{3, 6, 8} {
		frags = append(frags, frag(id, sB, 2))
	}

	bs := FormBaseClusters(frags)
	if bs[0].Seg != s1 {
		t.Fatalf("seed = %v, want S1", bs[0])
	}
	// Sanity: the SF inputs tie. f(S1,A) = |{T1,T5}| = 2 = f(S1,B).
	cs := mustClusterSet(t, g, bs)
	S1c, _ := cs.Get(s1)
	Ac, _ := cs.Get(sA)
	Bc, _ := cs.Get(sB)
	if Netflow(S1c, Ac) != 2 || Netflow(S1c, Bc) != 2 {
		t.Fatalf("netflow tie broken by construction: %d vs %d", Netflow(S1c, Ac), Netflow(S1c, Bc))
	}
	if Ac.Density() != Bc.Density() {
		t.Fatalf("density tie broken by construction")
	}

	flows, _, err := FormFlowClusters(g, bs, FlowConfig{Weights: WeightsFlowOnly})
	if err != nil {
		t.Fatal(err)
	}
	first := flows[0]
	if !routeHas(first.Route, s0) || !routeHas(first.Route, s1) {
		t.Fatalf("first flow %v missing the S0-S1 spine", first.Route)
	}
	if !routeHas(first.Route, sA) {
		t.Errorf("first flow %v chose the wrong candidate: f(F,A)=3 should beat f(F,B)=2", first.Route)
	}
	if routeHas(first.Route, sB) {
		t.Errorf("first flow %v absorbed B", first.Route)
	}
}
