// Metamorphic invariants of the full pipeline: properties that must
// hold without consulting any oracle. This file is an external test
// package so it can use internal/selftest (which imports neat) for
// canonical renderings, and internal/proptest for seeded instances.
package neat_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/geo"
	"repro/internal/neat"
	"repro/internal/proptest"
	"repro/internal/roadnet"
	"repro/internal/selftest"
	"repro/internal/traj"
)

// metamorphicInstance draws one seeded instance plus an opt-NEAT
// configuration (metamorphic invariants are strongest on the full
// pipeline).
func metamorphicInstance(t *testing.T, seed int64) (*roadnet.Graph, traj.Dataset, neat.Config) {
	t.Helper()
	g, ds, d, err := selftest.Instance(seed)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	d.Level = proptest.LevelOpt
	d.Workers = 0
	d.ParallelPhase1 = false
	cfg, _, _, _ := selftest.Materialize(d)
	return g, ds, cfg
}

func runOpt(t *testing.T, g *roadnet.Graph, ds traj.Dataset, cfg neat.Config) *neat.Result {
	t.Helper()
	res, err := neat.NewPipeline(g).Run(ds, cfg, neat.LevelOpt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// routeCanonical renders a result without trajectory ids: per-flow
// routes and cardinalities plus cluster membership by flow index. Used
// by invariances that relabel trajectories.
func routeCanonical(r *neat.Result) string {
	out := fmt.Sprintf("fragments %d filtered %d\n", r.NumFragments, r.FilteredFlows)
	index := map[*neat.FlowCluster]int{}
	for i, f := range r.Flows {
		index[f] = i
		out += fmt.Sprintf("flow %d route=%v card=%d\n", i, []roadnet.SegID(f.Route), f.Cardinality())
	}
	for ci, c := range r.Clusters {
		idxs := make([]int, len(c.Flows))
		for k, f := range c.Flows {
			idxs[k] = index[f]
		}
		out += fmt.Sprintf("cluster %d flows=%v\n", ci, idxs)
	}
	return out
}

// TestMetamorphicIDPermutation: relabeling trajectory ids by any
// bijection (and reversing the dataset order) must not change the
// clustering structure — routes, cardinalities, cluster membership.
// Neither may shuffling the relabeled fragment list, which leaves no
// trajectory's fragments contiguous, when a FromFragments plan
// clusters it.
func TestMetamorphicIDPermutation(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g, ds, cfg := metamorphicInstance(t, seed)
		want := routeCanonical(runOpt(t, g, ds, cfg))

		rng := rand.New(rand.NewSource(seed * 31))
		perm := rng.Perm(len(ds.Trajectories))
		relabeled := traj.Dataset{Name: ds.Name}
		for i := len(ds.Trajectories) - 1; i >= 0; i-- {
			tr := ds.Trajectories[i]
			tr.ID = traj.ID(1000 + perm[i])
			relabeled.Trajectories = append(relabeled.Trajectories, tr)
		}
		got := routeCanonical(runOpt(t, g, relabeled, cfg))
		if got != want {
			t.Errorf("seed %d: clustering changed under id permutation:\n%s\nvs\n%s", seed, want, got)
		}

		p := neat.NewPipeline(g)
		frags, err := p.Partition(relabeled)
		if err != nil {
			t.Fatal(err)
		}
		rng.Shuffle(len(frags), func(i, j int) { frags[i], frags[j] = frags[j], frags[i] })
		plan, err := neat.NewPlan(cfg, neat.LevelOpt, neat.FromFragments, neat.Exec{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.RunPlan(plan, neat.Input{Fragments: frags})
		if err != nil {
			t.Fatal(err)
		}
		if got := routeCanonical(res); got != want {
			t.Errorf("seed %d: clustering changed on shuffled fragments:\n%s\nvs\n%s", seed, want, got)
		}
	}
}

// transformGraph rebuilds g with every junction coordinate mapped
// through f, preserving segment order, speed limits, classes, and
// one-way restrictions.
func transformGraph(t *testing.T, g *roadnet.Graph, f func(geo.Point) geo.Point) *roadnet.Graph {
	t.Helper()
	var b roadnet.Builder
	for n := 0; n < g.NumNodes(); n++ {
		b.AddJunction(f(g.Node(roadnet.NodeID(n)).Pt))
	}
	for s := 0; s < g.NumSegments(); s++ {
		seg := g.Segment(roadnet.SegID(s))
		if _, err := b.AddSegment(seg.NI, seg.NJ, roadnet.SegmentOpts{
			SpeedLimit: seg.SpeedLimit,
			Class:      seg.Class,
			OneWay:     !seg.Bidirectional,
		}); err != nil {
			t.Fatal(err)
		}
	}
	out, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func transformDataset(ds traj.Dataset, f func(geo.Point) geo.Point) traj.Dataset {
	out := traj.Dataset{Name: ds.Name}
	for _, tr := range ds.Trajectories {
		nt := traj.Trajectory{ID: tr.ID}
		for _, p := range tr.Points {
			p.Pt = f(p.Pt)
			nt.Points = append(nt.Points, p)
		}
		out.Trajectories = append(out.Trajectories, nt)
	}
	return out
}

// TestMetamorphicIsometry: an exact 90° rotation of all coordinates
// (distance-preserving bit for bit, since squared terms commute) plus a
// translation must leave cluster membership unchanged. Node and segment
// ids are preserved by construction, so the full canonical renderings
// must match.
func TestMetamorphicIsometry(t *testing.T) {
	transforms := []struct {
		name string
		f    func(geo.Point) geo.Point
	}{
		{"rotate90", func(p geo.Point) geo.Point { return geo.Pt(-p.Y, p.X) }},
		{"translate", func(p geo.Point) geo.Point { return geo.Pt(p.X+4096, p.Y-8192) }},
		{"rotate+translate", func(p geo.Point) geo.Point { return geo.Pt(-p.Y+4096, p.X+4096) }},
	}
	for seed := int64(0); seed < 12; seed++ {
		g, ds, cfg := metamorphicInstance(t, seed)
		want := selftest.CanonicalNEAT(runOpt(t, g, ds, cfg))
		for _, tf := range transforms {
			g2 := transformGraph(t, g, tf.f)
			ds2 := transformDataset(ds, tf.f)
			got := selftest.CanonicalNEAT(runOpt(t, g2, ds2, cfg))
			if d := selftest.Diff(want, got); d != "" {
				t.Errorf("seed %d %s: clustering changed under isometry: %s", seed, tf.name, d)
			}
		}
	}
}

// TestMetamorphicWorkers: the serial paper path and every parallel
// configuration — parallel Phase 1 partitioning, parallel/batched
// Phase 3 graph construction — must agree byte for byte on the full
// pipeline output.
func TestMetamorphicWorkers(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		g, ds, cfg := metamorphicInstance(t, seed)
		p := neat.NewPipeline(g)
		serial, err := p.Run(ds, cfg, neat.LevelOpt)
		if err != nil {
			t.Fatal(err)
		}
		want := selftest.CanonicalNEAT(serial)
		for _, workers := range []int{1, 2, 4} {
			par, err := p.RunParallel(ds, cfg, neat.LevelOpt, workers)
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if d := selftest.Diff(want, selftest.CanonicalNEAT(par)); d != "" {
				t.Errorf("seed %d workers %d: %s", seed, workers, d)
			}
			cfgW := cfg
			cfgW.Refine.Workers = workers
			res, err := p.Run(ds, cfgW, neat.LevelOpt)
			if err != nil {
				t.Fatal(err)
			}
			if d := selftest.Diff(want, selftest.CanonicalNEAT(res)); d != "" {
				t.Errorf("seed %d refine workers %d: %s", seed, workers, d)
			}
		}
	}
}

// TestMetamorphicKernels: every shortest-path kernel must produce the
// same clustering on the full pipeline (the kernels are ablations, not
// semantic choices).
func TestMetamorphicKernels(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		g, ds, cfg := metamorphicInstance(t, seed)
		cfg.Refine.Algo = neat.SPDijkstra
		cfg.Refine.Bounded = false
		p := neat.NewPipeline(g)
		base, err := p.Run(ds, cfg, neat.LevelOpt)
		if err != nil {
			t.Fatal(err)
		}
		want := selftest.CanonicalNEAT(base)
		for _, algo := range []neat.SPAlgo{neat.SPAStar, neat.SPBidirectional, neat.SPALT, neat.SPCH} {
			cfgA := cfg
			cfgA.Refine.Algo = algo
			res, err := p.Run(ds, cfgA, neat.LevelOpt)
			if err != nil {
				t.Fatalf("seed %d algo %v: %v", seed, algo, err)
			}
			if d := selftest.Diff(want, selftest.CanonicalNEAT(res)); d != "" {
				t.Errorf("seed %d algo %v: %s", seed, algo, d)
			}
		}
	}
}

// TestMetamorphicMinCardMonotonic: raising minCard only filters — the
// number of formed flows (kept + filtered) is invariant, the kept count
// is non-increasing, and every surviving flow's route also survives at
// every lower threshold.
func TestMetamorphicMinCardMonotonic(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		g, ds, cfg := metamorphicInstance(t, seed)
		p := neat.NewPipeline(g)
		prevKept := -1
		total := -1
		for minCard := 0; minCard <= 6; minCard++ {
			cfgM := cfg
			cfgM.Flow.MinCard = minCard
			res, err := p.Run(ds, cfgM, neat.LevelFlow)
			if err != nil {
				t.Fatal(err)
			}
			kept := len(res.Flows)
			if total < 0 {
				total = kept + res.FilteredFlows
			} else if kept+res.FilteredFlows != total {
				t.Errorf("seed %d minCard %d: formed %d flows, want %d", seed, minCard, kept+res.FilteredFlows, total)
			}
			if prevKept >= 0 && kept > prevKept {
				t.Errorf("seed %d minCard %d: kept %d > %d at lower threshold", seed, minCard, kept, prevKept)
			}
			for _, f := range res.Flows {
				if f.Cardinality() < minCard {
					t.Errorf("seed %d minCard %d: flow with cardinality %d survived", seed, minCard, f.Cardinality())
				}
			}
			prevKept = kept
		}
	}
}
