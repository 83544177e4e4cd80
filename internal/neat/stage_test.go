package neat

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/proptest"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// stepSpans names the phase spans directly under a traced run's root.
func stepSpans(res *Result) []string {
	var out []string
	for _, c := range res.Trace.Children() {
		out = append(out, c.Name())
	}
	return out
}

// TestPlanComposition pins the steps each (level, input) plan runs, as
// its trace shows them, and that a cancelled context runs none.
func TestPlanComposition(t *testing.T) {
	g, ds := genInstance(t, 3)
	p := NewPipeline(g)
	p.EnableTracing(true)
	frags, err := p.Partition(ds)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Flow:   FlowConfig{Weights: WeightsBalanced, MinCard: 1, Beta: 2},
		Refine: RefineConfig{Epsilon: 1200, MinPts: 1},
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		level Level
		in    PlanInput
		want  []string
	}{
		{LevelBase, FromDataset, []string{"phase1.partition", "phase1.base_clusters"}},
		{LevelFlow, FromDataset, []string{"phase1.partition", "phase1.base_clusters", "phase2.flow_clusters"}},
		{LevelOpt, FromDataset, []string{"phase1.partition", "phase1.base_clusters", "phase2.flow_clusters", "phase3.refine"}},
		{LevelBase, FromFragments, []string{"phase1.base_clusters"}},
		{LevelOpt, FromFragments, []string{"phase1.base_clusters", "phase2.flow_clusters", "phase3.refine"}},
	}
	for _, c := range cases {
		plan, err := NewPlan(cfg, c.level, c.in, Exec{})
		if err != nil {
			t.Fatalf("%s/%d: %v", c.level, c.in, err)
		}
		in := Input{Dataset: ds, Fragments: frags}
		res, err := p.RunPlan(plan, in)
		if err != nil {
			t.Fatalf("%s/%d: %v", c.level, c.in, err)
		}
		if got := stepSpans(res); fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s/%d: steps %v, want %v", c.level, c.in, got, c.want)
		}
		if res.Level != c.level || res.Trace.LabelMap()["level"] != c.level.String() {
			t.Errorf("%s/%d: result level %s, trace %v", c.level, c.in, res.Level, res.Trace.LabelMap())
		}
		if _, err := p.RunPlanCtx(cancelled, plan, in); !errors.Is(err, context.Canceled) {
			t.Errorf("%s/%d: cancelled run: err %v", c.level, c.in, err)
		}
	}
}

// TestPlanValidationScoping pins that validation covers exactly the
// stages a plan composes: a flow-NEAT plan must not demand a valid
// refinement config, while an opt-NEAT plan must. A flow-set read
// follows the same rule.
func TestPlanValidationScoping(t *testing.T) {
	noRefine := Config{Flow: FlowConfig{Weights: WeightsFlowOnly}} // zero Refine: invalid for LevelOpt
	if _, err := NewPlan(noRefine, LevelFlow, FromDataset, Exec{}); err != nil {
		t.Errorf("flow-NEAT plan rejected a zero refine config: %v", err)
	}
	if _, err := NewPlan(noRefine, LevelOpt, FromDataset, Exec{}); err == nil {
		t.Error("opt-NEAT plan accepted a zero refine config")
	}
	g, _ := genInstance(t, 1)
	p, fs := NewPipeline(g), &FlowSet{}
	if _, err := p.RunFlowSet(context.Background(), fs, noRefine, LevelFlow); err != nil {
		t.Errorf("flow-NEAT flow-set read rejected a zero refine config: %v", err)
	}
	if _, err := p.RunFlowSet(context.Background(), fs, noRefine, LevelOpt); err == nil {
		t.Error("opt-NEAT flow-set read accepted a zero refine config")
	}
	if _, err := NewPlan(DefaultConfig(), Level(9), FromDataset, Exec{}); err == nil {
		t.Error("unknown level accepted")
	}
	badFlow := DefaultConfig()
	badFlow.Flow.Beta = 0.5
	if _, err := NewPlan(badFlow, LevelFlow, FromDataset, Exec{}); err == nil {
		t.Error("invalid flow config accepted")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.Refine.Epsilon = -1
	if bad.Validate() == nil {
		t.Error("negative epsilon accepted")
	}
	bad = DefaultConfig()
	bad.Flow.MinCard = -2
	if bad.Validate() == nil {
		t.Error("negative minCard accepted")
	}
}

// renderResult is the in-package canonical form used to compare runs
// byte for byte (the cross-package differential harness has its own).
func renderResult(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "fragments %d filtered %d\n", r.NumFragments, r.FilteredFlows)
	for _, bc := range r.BaseClusters {
		fmt.Fprintf(&b, "base %d d=%d trajs=%v\n", bc.Seg, bc.Density(), bc.ParticipatingTrajectories())
	}
	index := make(map[*FlowCluster]int, len(r.Flows))
	for i, f := range r.Flows {
		index[f] = i
		fmt.Fprintf(&b, "flow %d route=%v trajs=%v\n", i, []roadnet.SegID(f.Route), f.ParticipatingTrajectories())
	}
	for ci, c := range r.Clusters {
		idxs := make([]int, len(c.Flows))
		for k, f := range c.Flows {
			idxs[k] = index[f]
		}
		fmt.Fprintf(&b, "cluster %d flows=%v\n", ci, idxs)
	}
	return b.String()
}

// genInstance draws a random graph + dataset for the equivalence tests.
func genInstance(t *testing.T, seed int64) (*roadnet.Graph, traj.Dataset) {
	t.Helper()
	rng := proptest.NewRand(seed)
	g, err := proptest.GenGraph(rng)
	if err != nil {
		t.Fatal(err)
	}
	ds := proptest.GenDataset(rng, g, proptest.DatasetOpts{GapProb: rng.Float64() * 0.4})
	return g, ds
}

// TestRunParallelMatchesRunBytes is the in-package determinism pin for
// parallel execution: for every level, a RunParallel run renders byte
// for byte like the serial Run.
func TestRunParallelMatchesRunBytes(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		g, ds := genInstance(t, seed)
		cfg := Config{
			Flow:   FlowConfig{Weights: WeightsBalanced, MinCard: 1, Beta: 2},
			Refine: RefineConfig{Epsilon: 1200, MinPts: 1},
		}
		p := NewPipeline(g)
		for _, level := range []Level{LevelBase, LevelFlow, LevelOpt} {
			ref, err := p.Run(ds, cfg, level)
			if err != nil {
				t.Fatalf("seed %d %s: serial: %v", seed, level, err)
			}
			res, err := p.RunParallel(ds, cfg, level, 3)
			if err != nil {
				t.Fatalf("seed %d %s: parallel: %v", seed, level, err)
			}
			if renderResult(res) != renderResult(ref) {
				t.Fatalf("seed %d %s: parallel output diverges from the serial run", seed, level)
			}
		}
	}
}
