package neat

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/proptest"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// sameFlows reports the first difference between two flow lists: order,
// routes, and member base clusters (by identity — both lists come from
// the same base cluster slice).
func sameFlows(got, want []*FlowCluster) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d flows, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if fmt.Sprint(g.Route) != fmt.Sprint(w.Route) {
			return fmt.Errorf("flow %d route %v, want %v", i, g.Route, w.Route)
		}
		if len(g.Members) != len(w.Members) {
			return fmt.Errorf("flow %d has %d members, want %d", i, len(g.Members), len(w.Members))
		}
		for j := range g.Members {
			if g.Members[j] != w.Members[j] {
				return fmt.Errorf("flow %d member %d differs", i, j)
			}
		}
	}
	return nil
}

// TestPropertyMinCardIsPostFilter pins the fact the snapshot memo rests
// on: minCard never changes Phase 2's greedy, so filtering the minCard 0
// flow list by k equals forming flows with minCard k.
func TestPropertyMinCardIsPostFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	weights := []Weights{WeightsFlowOnly, WeightsDensityOnly, WeightsBalanced}
	for trial := 0; trial < 30; trial++ {
		g, frags := proptest.RandomScenario(t, rng)
		base := FormBaseClusters(frags)
		cfg := FlowConfig{Weights: weights[trial%len(weights)]}
		if trial%2 == 1 {
			cfg.Beta = 2
		}
		all, _, err := FormFlowClusters(g, base, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k <= 6; k++ {
			kcfg := cfg
			kcfg.MinCard = k
			want, wantFiltered, err := FormFlowClusters(g, base, kcfg)
			if err != nil {
				t.Fatal(err)
			}
			got, filtered := filterFlows(all, k)
			if err := sameFlows(got, want); err != nil {
				t.Fatalf("trial %d minCard %d: %v", trial, k, err)
			}
			if filtered != wantFiltered {
				t.Fatalf("trial %d minCard %d: filtered %d, want %d", trial, k, filtered, wantFiltered)
			}
		}
	}
}

// renderRefined renders a Phase 3 output through the accessors a
// server response reads.
func renderRefined(g *roadnet.Graph, cs []*TrajectoryCluster) string {
	var b strings.Builder
	for _, c := range cs {
		fmt.Fprintf(&b, "cluster card=%d density=%d\n", c.Cardinality(), c.Density())
		for _, f := range c.Flows {
			front, back := f.Endpoints()
			fmt.Fprintf(&b, "  route=%v len=%g card=%d density=%d ends=%d,%d\n",
				f.Route, f.RouteLength(g), f.Cardinality(), f.Density(), front, back)
		}
	}
	return b.String()
}

// TestPropertyDetachedFlows checks that a detached flow keeps every
// accessor but Members, and that Phase 3 cannot tell the difference.
func TestPropertyDetachedFlows(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 25; trial++ {
		g, frags := proptest.RandomScenario(t, rng)
		flows, _, err := FormFlowClusters(g, FormBaseClusters(frags), FlowConfig{})
		if err != nil {
			t.Fatal(err)
		}
		detached := make([]*FlowCluster, len(flows))
		for i, f := range flows {
			d := f.Detached()
			detached[i] = d
			n := 0
			for _, m := range f.Members {
				n += m.Density()
			}
			if d.Members != nil {
				t.Fatalf("trial %d flow %d: detached flow keeps members", trial, i)
			}
			if d.Density() != n || f.Density() != n {
				t.Fatalf("trial %d flow %d: density %d/%d, members sum %d", trial, i, d.Density(), f.Density(), n)
			}
			if d.Cardinality() != f.Cardinality() || d.RouteLength(g) != f.RouteLength(g) {
				t.Fatalf("trial %d flow %d: cardinality or route length changed", trial, i)
			}
			df, db := d.Endpoints()
			ff, fb := f.Endpoints()
			if df != ff || db != fb {
				t.Fatalf("trial %d flow %d: endpoints changed", trial, i)
			}
		}
		cfg := RefineConfig{Epsilon: 100 + rng.Float64()*3000, UseELB: trial%2 == 0, Bounded: true}
		want, wantStats, err := RefineFlows(g, flows, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, gotStats, err := RefineFlows(g, detached, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := renderRefined(g, got), renderRefined(g, want); a != b {
			t.Fatalf("trial %d: Phase 3 over detached flows diverges:\n%s\nwant:\n%s", trial, a, b)
		}
		if gotStats.Pairs != wantStats.Pairs || gotStats.SPQueries != wantStats.SPQueries {
			t.Fatalf("trial %d: work differs: %+v vs %+v", trial, gotStats, wantStats)
		}
	}
}

// TestFlowSetMatchesFragmentPlan pins the two-tier read against the
// one-shot plan: for every level and minCard, one flow set answers
// exactly what a FromFragments run of the same config does. The set is
// built in two folds, split at a seed-dependent point: at seed 1 the
// first fold is empty and the second folds every fragment.
func TestFlowSetMatchesFragmentPlan(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 8; seed++ {
		g, ds := genInstance(t, seed)
		p := NewPipeline(g)
		frags, err := p.Partition(ds)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Flow: FlowConfig{Weights: WeightsFlowOnly}, Refine: RefineConfig{Epsilon: 900, UseELB: true, Bounded: true}}
		split := len(frags) * int(seed-1) / 8
		_, kept, err := p.BuildFlowSet(ctx, nil, frags[:split], cfg)
		if err != nil {
			t.Fatal(err)
		}
		fs, _, err := p.BuildFlowSet(ctx, kept, frags[split:], cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, level := range []Level{LevelBase, LevelFlow, LevelOpt} {
			for _, k := range []int{0, 2, 5} {
				cfg.Flow.MinCard = k
				want, err := p.RunFragments(frags, cfg, level)
				if err != nil {
					t.Fatal(err)
				}
				got, err := p.RunFlowSet(ctx, fs, cfg, level)
				if err != nil {
					t.Fatal(err)
				}
				if fs.BaseClusters != len(want.BaseClusters) {
					t.Fatalf("seed %d: %d base clusters, want %d", seed, fs.BaseClusters, len(want.BaseClusters))
				}
				if level >= LevelFlow && got.FilteredFlows != want.FilteredFlows {
					t.Fatalf("seed %d %s minCard %d: filtered %d, want %d", seed, level, k, got.FilteredFlows, want.FilteredFlows)
				}
				if a, b := renderRefined(g, []*TrajectoryCluster{{Flows: got.Flows}}), renderRefined(g, []*TrajectoryCluster{{Flows: want.Flows}}); a != b {
					t.Fatalf("seed %d %s minCard %d: flows diverge", seed, level, k)
				}
				if a, b := renderRefined(g, got.Clusters), renderRefined(g, want.Clusters); a != b {
					t.Fatalf("seed %d %s minCard %d: clusters diverge:\n%s\nwant:\n%s", seed, level, k, a, b)
				}
			}
		}
	}
}

// TestFlowSetMetrics pins the two-tier accounting: building a flow set
// observes phases 1 and 2 and the fragments once, without counting a
// run; every read from it counts one run, and an opt read observes
// phase 3 and its shortest-path work.
func TestFlowSetMetrics(t *testing.T) {
	g, ds := proptest.SimScenario(t, 120)
	reg := obs.NewRegistry()
	p := NewPipeline(g)
	p.Instrument(reg)
	frags, err := p.Partition(ds)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := Config{Flow: FlowConfig{Weights: WeightsFlowOnly, MinCard: 3}, Refine: RefineConfig{Epsilon: 2000, UseELB: true, Bounded: true}}
	fs, _, err := p.BuildFlowSet(ctx, nil, frags, cfg)
	if err != nil {
		t.Fatal(err)
	}
	phase := func(n string) int64 { return reg.Histogram("neat_phase_seconds", nil, obs.L("phase", n)).Count() }
	if runs := reg.Counter("neat_runs_total").Value(); runs != 0 {
		t.Fatalf("building a flow set counted %d runs", runs)
	}
	if phase("1") != 1 || phase("2") != 1 || phase("3") != 0 {
		t.Fatalf("after build: phase counts %d/%d/%d, want 1/1/0", phase("1"), phase("2"), phase("3"))
	}
	if got := reg.Counter("neat_fragments_total").Value(); got != int64(len(frags)) {
		t.Fatalf("neat_fragments_total = %d, want %d", got, len(frags))
	}
	opt, err := p.RunFlowSet(ctx, fs, cfg, LevelOpt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunFlowSet(ctx, fs, cfg, LevelFlow); err != nil {
		t.Fatal(err)
	}
	if runs := reg.Counter("neat_runs_total").Value(); runs != 2 {
		t.Fatalf("neat_runs_total = %d after two reads", runs)
	}
	if phase("1") != 1 || phase("2") != 1 || phase("3") != 1 {
		t.Fatalf("after reads: phase counts %d/%d/%d, want 1/1/1", phase("1"), phase("2"), phase("3"))
	}
	if got := reg.Counter("neat_sp_queries_total").Value(); got != opt.RefineStats.SPQueries {
		t.Fatalf("neat_sp_queries_total = %d, want %d", got, opt.RefineStats.SPQueries)
	}
	if got := reg.Counter("neat_clusters_total").Value(); got != int64(len(opt.Clusters)) {
		t.Fatalf("neat_clusters_total = %d, want %d", got, len(opt.Clusters))
	}
	if got := reg.Counter("neat_fragments_total").Value(); got != int64(len(frags)) {
		t.Fatalf("reads moved neat_fragments_total to %d", got)
	}
}

// TestMergeFlowsTraceName pins the trace of a read's Phase 3: an
// opt-level RunFlowSet roots its span tree at "neat.merge", distinct
// from a full run's "neat.run", with the refine stage's spans under it.
func TestMergeFlowsTraceName(t *testing.T) {
	g, ds := genInstance(t, 11)
	p := NewPipeline(g)
	p.EnableTracing(true)
	frags, err := p.Partition(ds)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := Config{Flow: FlowConfig{Weights: WeightsFlowOnly}, Refine: RefineConfig{Epsilon: 800}}
	fs, _, err := p.BuildFlowSet(ctx, nil, frags, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.RunFlowSet(ctx, fs, cfg, LevelOpt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.Name() != "neat.merge" {
		t.Errorf("merge root span %q, want neat.merge", res.Trace.Name())
	}
	for _, name := range []string{"phase3.refine", "phase3.eps_graph", "phase3.dbscan"} {
		if res.Trace.Find(name) == nil {
			t.Errorf("merge trace lacks %s", name)
		}
	}
}

// TestConcurrentBuildsOnOneSet runs Phase 2 from several goroutines
// over one kept set: each folds its own batch into it and forms flows
// under its own settings. Each must equal the same build over a twin
// of the set, and the kept set must be left as it was. Each batch
// brings one trajectory the set has not seen and refolds some it has,
// so it fits the spare capacity of the set's id array: the build that
// claims it appends in place while the others copy the array and run
// Phase 2 over it. Run it under the race detector.
func TestConcurrentBuildsOnOneSet(t *testing.T) {
	g, ds := proptest.SimScenario(t, 160)
	p := NewPipeline(g)
	frags, err := p.Partition(ds)
	if err != nil {
		t.Fatal(err)
	}
	var starts []int // where each trajectory's fragments start
	for i, f := range frags {
		if i == 0 || f.Traj != frags[i-1].Traj {
			starts = append(starts, i)
		}
	}
	const builds = 4
	half := len(starts) / 2
	split := starts[half]
	ctx := context.Background()
	twin := func() *ClusterSet {
		_, cs, err := p.BuildFlowSet(ctx, nil, frags[:split], Config{})
		if err != nil {
			t.Fatal(err)
		}
		return cs
	}
	ref, kept := twin(), twin()
	x := kept.index
	if cap(x.ids) == len(x.ids) {
		t.Fatalf("the kept set's id array of %d ids has no spare capacity", len(x.ids))
	}
	before := renderSet(kept)
	batches := make([][]traj.TFragment, builds)
	for i := range batches {
		batches[i] = slices.Concat(frags[starts[half+i]:starts[half+i+1]], frags[i*split/builds:(i+1)*split/builds])
	}
	cfgs := []Config{{}, {Flow: FlowConfig{Weights: WeightsBalanced, Beta: 2}}}
	build := func(pp *Pipeline, cs *ClusterSet, i int) (string, *ClusterSet) {
		fs, next, err := pp.BuildFlowSet(ctx, cs, batches[i], cfgs[i%len(cfgs)])
		if err != nil {
			t.Error(err)
			return "", nil
		}
		return renderFlows(fs.Flows, 0), next
	}
	want := make([]string, builds)
	for i := range want {
		want[i], _ = build(p, ref, i)
	}
	nexts := make([]*ClusterSet, builds)
	var wg sync.WaitGroup
	for i := range want {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var got string
			if got, nexts[i] = build(NewPipeline(g), kept, i); got != want[i] {
				t.Errorf("build %d differs from the same build on a twin set", i)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	inPlace := 0
	for _, next := range nexts {
		if y := next.index; y != x && &y.ids[0] == &x.ids[0] {
			inPlace++
		}
	}
	if inPlace != 1 {
		t.Fatalf("%d builds appended to the kept set's id array in place, want 1", inPlace)
	}
	if renderSet(kept) != before {
		t.Fatal("concurrent builds changed the kept set")
	}
}
