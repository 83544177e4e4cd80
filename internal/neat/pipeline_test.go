package neat

import (
	"testing"

	"repro/internal/proptest"
	"repro/internal/roadnet"
)

func TestPipelineEndToEnd(t *testing.T) {
	g, ds := proptest.SimScenario(t, 120)
	p := NewPipeline(g)
	cfg := Config{
		Flow:   FlowConfig{Weights: WeightsFlowOnly, MinCard: 5},
		Refine: RefineConfig{Epsilon: 2000, UseELB: true, Bounded: true},
	}
	res, err := p.Run(ds, cfg, LevelOpt)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumFragments == 0 {
		t.Fatal("no fragments extracted")
	}
	if len(res.BaseClusters) == 0 {
		t.Fatal("no base clusters")
	}
	if len(res.Flows) == 0 {
		t.Fatal("no flows survived minCard=5 on 120 objects with 2 hotspots")
	}
	if len(res.Clusters) == 0 || len(res.Clusters) > len(res.Flows) {
		t.Fatalf("clusters = %d for %d flows", len(res.Clusters), len(res.Flows))
	}

	// Invariant: base clusters are density-sorted and cover each
	// segment at most once.
	seen := map[roadnet.SegID]bool{}
	for i, b := range res.BaseClusters {
		if seen[b.Seg] {
			t.Fatalf("segment %d has two base clusters", b.Seg)
		}
		seen[b.Seg] = true
		if i > 0 && res.BaseClusters[i-1].Density() < b.Density() {
			t.Fatal("base clusters not density-sorted")
		}
	}
	// Invariant: total fragment count is preserved into base clusters.
	total := 0
	for _, b := range res.BaseClusters {
		total += b.Density()
	}
	if total != res.NumFragments {
		t.Errorf("fragments in base clusters = %d, extracted = %d", total, res.NumFragments)
	}
	// Invariant: every flow's route is a valid route, and flows
	// partition a subset of base clusters.
	segsInFlows := map[roadnet.SegID]bool{}
	for _, f := range res.Flows {
		if err := f.Route.Validate(g); err != nil {
			t.Errorf("invalid flow route: %v", err)
		}
		if f.Cardinality() < cfg.Flow.MinCard {
			t.Errorf("flow with cardinality %d survived minCard %d", f.Cardinality(), cfg.Flow.MinCard)
		}
		for _, s := range f.Route {
			if segsInFlows[s] {
				t.Errorf("segment %d in two flows", s)
			}
			segsInFlows[s] = true
		}
	}
	// Invariant: clusters partition the flows.
	flowCount := 0
	for _, c := range res.Clusters {
		flowCount += len(c.Flows)
	}
	if flowCount != len(res.Flows) {
		t.Errorf("clusters contain %d flows, phase 2 produced %d", flowCount, len(res.Flows))
	}
	// Timings recorded.
	if res.Timing.Phase1 <= 0 || res.Timing.Phase2 <= 0 || res.Timing.Phase3 <= 0 {
		t.Errorf("timings not recorded: %+v", res.Timing)
	}
	if res.Timing.Total() < res.Timing.Phase1 {
		t.Error("total < phase1")
	}
}

func TestPipelineLevels(t *testing.T) {
	g, ds := proptest.SimScenario(t, 40)
	p := NewPipeline(g)
	cfg := DefaultConfig()
	cfg.Refine.Epsilon = 2000

	base, err := p.Run(ds, cfg, LevelBase)
	if err != nil {
		t.Fatal(err)
	}
	if base.Flows != nil || base.Clusters != nil {
		t.Error("base-NEAT produced flows or clusters")
	}
	if base.Timing.Phase2 != 0 || base.Timing.Phase3 != 0 {
		t.Error("base-NEAT recorded later-phase timings")
	}

	flow, err := p.Run(ds, cfg, LevelFlow)
	if err != nil {
		t.Fatal(err)
	}
	if flow.Flows == nil || flow.Clusters != nil {
		t.Error("flow-NEAT output wrong")
	}

	opt, err := p.Run(ds, cfg, LevelOpt)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Clusters == nil {
		t.Error("opt-NEAT produced no clusters")
	}
	// Phase 1 and 2 results agree across levels.
	if len(base.BaseClusters) != len(opt.BaseClusters) {
		t.Error("base cluster count differs across levels")
	}
	if len(flow.Flows) != len(opt.Flows) {
		t.Error("flow count differs across levels")
	}
}

func TestPipelineDeterminismEndToEnd(t *testing.T) {
	g, ds := proptest.SimScenario(t, 60)
	p := NewPipeline(g)
	cfg := DefaultConfig()
	cfg.Refine.Epsilon = 2500
	a, err := p.Run(ds, cfg, LevelOpt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Run(ds, cfg, LevelOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Flows) != len(b.Flows) || len(a.Clusters) != len(b.Clusters) {
		t.Fatalf("non-deterministic: %d/%d flows, %d/%d clusters",
			len(a.Flows), len(b.Flows), len(a.Clusters), len(b.Clusters))
	}
	for i := range a.Flows {
		if len(a.Flows[i].Route) != len(b.Flows[i].Route) {
			t.Fatalf("flow %d route length differs", i)
		}
		for j := range a.Flows[i].Route {
			if a.Flows[i].Route[j] != b.Flows[i].Route[j] {
				t.Fatalf("flow %d differs at %d", i, j)
			}
		}
	}
}

func TestRunFragmentsMatchesRun(t *testing.T) {
	g, ds := proptest.SimScenario(t, 50)
	p := NewPipeline(g)
	cfg := DefaultConfig()
	cfg.Refine.Epsilon = 2000

	direct, err := p.Run(ds, cfg, LevelFlow)
	if err != nil {
		t.Fatal(err)
	}
	frags, err := p.Partition(ds)
	if err != nil {
		t.Fatal(err)
	}
	viaFrags, err := p.RunFragments(frags, cfg, LevelFlow)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.Flows) != len(viaFrags.Flows) {
		t.Errorf("flows differ: %d vs %d", len(direct.Flows), len(viaFrags.Flows))
	}
	if direct.NumFragments != viaFrags.NumFragments {
		t.Errorf("fragments differ: %d vs %d", direct.NumFragments, viaFrags.NumFragments)
	}
}

func TestLevelString(t *testing.T) {
	if LevelBase.String() != "base-NEAT" || LevelFlow.String() != "flow-NEAT" || LevelOpt.String() != "opt-NEAT" {
		t.Error("Level.String wrong")
	}
	if SPDijkstra.String() != "dijkstra" || SPAStar.String() != "astar" || SPBidirectional.String() != "bidirectional" {
		t.Error("SPAlgo.String wrong")
	}
}
