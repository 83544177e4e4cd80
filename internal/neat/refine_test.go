package neat

import (
	"math"
	"testing"

	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// refineScenario builds a long corridor with two parallel flows whose
// endpoints are close (should merge at a reasonable ε) plus a distant
// third flow.
//
//	n0 --- n1 --- n2        (flow A, along y=0)
//	n3 --- n4 --- n5        (flow B, along y=200: endpoints 200 m away)
//	n6 --- n7               (flow C, 5 km away)
//
// Connector segments tie the groups into one graph so network
// distances exist.
func refineScenario(t *testing.T) (*roadnet.Graph, []*FlowCluster) {
	t.Helper()
	var b roadnet.Builder
	n0 := b.AddJunction(geo.Pt(0, 0))
	n1 := b.AddJunction(geo.Pt(300, 0))
	n2 := b.AddJunction(geo.Pt(600, 0))
	n3 := b.AddJunction(geo.Pt(0, 200))
	n4 := b.AddJunction(geo.Pt(300, 200))
	n5 := b.AddJunction(geo.Pt(600, 200))
	n6 := b.AddJunction(geo.Pt(5000, 0))
	n7 := b.AddJunction(geo.Pt(5300, 0))

	segA1, _ := b.AddSegment(n0, n1, roadnet.SegmentOpts{})
	segA2, _ := b.AddSegment(n1, n2, roadnet.SegmentOpts{})
	segB1, _ := b.AddSegment(n3, n4, roadnet.SegmentOpts{})
	segB2, _ := b.AddSegment(n4, n5, roadnet.SegmentOpts{})
	segC, _ := b.AddSegment(n6, n7, roadnet.SegmentOpts{})
	// Connectors: verticals at both ends, and a long link to C.
	if _, err := b.AddSegment(n0, n3, roadnet.SegmentOpts{}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddSegment(n2, n5, roadnet.SegmentOpts{}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddSegment(n2, n6, roadnet.SegmentOpts{}); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	mk := func(id traj.ID, segs ...roadnet.SegID) *FlowCluster {
		var frags []traj.TFragment
		for i, s := range segs {
			frags = append(frags, mkFrag(g, id, s, i))
		}
		bs := FormBaseClusters(frags)
		flows, _, err := FormFlowClusters(g, bs, FlowConfig{Weights: WeightsFlowOnly})
		if err != nil {
			t.Fatal(err)
		}
		if len(flows) != 1 {
			t.Fatalf("helper expected 1 flow, got %d", len(flows))
		}
		return flows[0]
	}
	flowA := mk(1, segA1, segA2)
	flowB := mk(2, segB1, segB2)
	flowC := mk(3, segC)
	return g, []*FlowCluster{flowA, flowB, flowC}
}

func TestRefineMergesCloseFlows(t *testing.T) {
	g, flows := refineScenario(t)
	// ε = 250: A and B endpoints are 200 m apart in network distance
	// (via the vertical connectors); C is kilometers away.
	clusters, stats, err := RefineFlows(g, flows, RefineConfig{Epsilon: 250, UseELB: true, Bounded: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 2 {
		t.Fatalf("clusters = %d, want 2 (A+B merged, C alone)", len(clusters))
	}
	// The first cluster is seeded by the longest route (A or B, both
	// 600 m) and must contain two flows.
	if len(clusters[0].Flows) != 2 {
		t.Errorf("merged cluster has %d flows", len(clusters[0].Flows))
	}
	if len(clusters[1].Flows) != 1 {
		t.Errorf("singleton cluster has %d flows", len(clusters[1].Flows))
	}
	if stats.Pairs != 3 {
		t.Errorf("pairs = %d, want 3", stats.Pairs)
	}
	if stats.ELBPruned == 0 {
		t.Error("ELB pruned nothing; the C pairs should be pruned")
	}
}

func TestRefineSmallEpsilonKeepsAllApart(t *testing.T) {
	g, flows := refineScenario(t)
	clusters, _, err := RefineFlows(g, flows, RefineConfig{Epsilon: 50, UseELB: true, Bounded: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 3 {
		t.Fatalf("clusters = %d, want 3", len(clusters))
	}
}

func TestRefineELBConsistency(t *testing.T) {
	// The ELB filter must never change the clustering result, only the
	// work done — the core claim of §III-C3.
	g, flows := refineScenario(t)
	for _, eps := range []float64{50, 150, 250, 400, 1000, 6000} {
		with, statsWith, err := RefineFlows(g, flows, RefineConfig{Epsilon: eps, UseELB: true})
		if err != nil {
			t.Fatal(err)
		}
		without, statsWithout, err := RefineFlows(g, flows, RefineConfig{Epsilon: eps, UseELB: false})
		if err != nil {
			t.Fatal(err)
		}
		if len(with) != len(without) {
			t.Errorf("ε=%v: ELB changed cluster count %d vs %d", eps, len(with), len(without))
		}
		if statsWith.SPQueries > statsWithout.SPQueries {
			t.Errorf("ε=%v: ELB increased SP queries (%d vs %d)", eps, statsWith.SPQueries, statsWithout.SPQueries)
		}
	}
}

func TestRefineAlgoAblation(t *testing.T) {
	// All shortest-path kernels must agree on the clustering.
	g, flows := refineScenario(t)
	base, _, err := RefineFlows(g, flows, RefineConfig{Epsilon: 250, Algo: SPDijkstra})
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []SPAlgo{SPAStar, SPBidirectional, SPALT, SPCH} {
		got, _, err := RefineFlows(g, flows, RefineConfig{Epsilon: 250, Algo: algo})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(base) {
			t.Errorf("algo %v: clusters = %d, want %d", algo, len(got), len(base))
		}
	}
}

func TestRefineEmptyAndErrors(t *testing.T) {
	g, flows := refineScenario(t)
	clusters, _, err := RefineFlows(g, nil, RefineConfig{Epsilon: 100})
	if err != nil || clusters != nil {
		t.Errorf("empty input: %v, %v", clusters, err)
	}
	if _, _, err := RefineFlows(g, flows, RefineConfig{Epsilon: 0}); err == nil {
		t.Error("ε=0 accepted")
	}
	if _, _, err := RefineFlows(g, flows, RefineConfig{Epsilon: -5}); err == nil {
		t.Error("negative ε accepted")
	}
	if _, _, err := RefineFlows(g, flows, RefineConfig{Epsilon: math.NaN()}); err == nil {
		t.Error("NaN ε accepted")
	}
}

func TestRefineDeterministic(t *testing.T) {
	g, flows := refineScenario(t)
	sig := func(cs []*TrajectoryCluster) [][]int {
		var out [][]int
		for _, c := range cs {
			var lens []int
			for _, f := range c.Flows {
				lens = append(lens, len(f.Route))
			}
			out = append(out, lens)
		}
		return out
	}
	a, _, err := RefineFlows(g, flows, RefineConfig{Epsilon: 250})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := RefineFlows(g, flows, RefineConfig{Epsilon: 250})
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := sig(a), sig(b)
	if len(sa) != len(sb) {
		t.Fatal("cluster count differs between runs")
	}
	for i := range sa {
		if len(sa[i]) != len(sb[i]) {
			t.Errorf("cluster %d sizes differ", i)
		}
	}
}

func TestTrajectoryClusterAccessors(t *testing.T) {
	g, flows := refineScenario(t)
	clusters, _, err := RefineFlows(g, flows, RefineConfig{Epsilon: 250})
	if err != nil {
		t.Fatal(err)
	}
	merged := clusters[0]
	if merged.Cardinality() != 2 { // trajectories 1 and 2
		t.Errorf("Cardinality = %d, want 2", merged.Cardinality())
	}
	if merged.Density() != 4 { // 2 fragments per flow
		t.Errorf("Density = %d, want 4", merged.Density())
	}
	if len(merged.Routes()) != 2 {
		t.Errorf("Routes = %d", len(merged.Routes()))
	}
}
