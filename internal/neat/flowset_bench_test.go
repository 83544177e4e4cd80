package neat_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/experiments"
	"repro/internal/neat"
	"repro/internal/traj"
)

// flowSetSink keeps BenchmarkBuildFlowSet's result live.
var flowSetSink *neat.FlowSet

// BenchmarkBuildFlowSet times Phases 1–2 of a server read,
// BuildFlowSet, over the fragments of 1,250 ATL@0.5 hotspot trips
// (about 81k fragments, 381 base clusters) with the server's flow
// settings. fold=batch folds trips 1,249–1,250 into the set kept from
// the first 1,248: the first read after a 2-trip ingest. fold=all folds
// all 1,250 trips into the empty set: the read after boot or a heal.
// ids=ascending keeps the trips' sequential ids, as a client numbering
// trips in arrival order would; ids=permuted relabels the trips with a
// seeded random permutation, fragments still grouped by trajectory.
func BenchmarkBuildFlowSet(b *testing.B) {
	env, err := experiments.NewEnv(0.5)
	if err != nil {
		b.Fatal(err)
	}
	g, err := env.Graph("ATL")
	if err != nil {
		b.Fatal(err)
	}
	ds, err := env.Dataset("ATL", 5000)
	if err != nil {
		b.Fatal(err)
	}
	const trips, batch = 1250, 2
	if len(ds.Trajectories) < trips {
		b.Fatalf("dataset has %d trips, want %d", len(ds.Trajectories), trips)
	}
	p := neat.NewPipeline(g)
	frags, err := p.Partition(traj.Dataset{Name: ds.Name, Trajectories: ds.Trajectories[:trips]})
	if err != nil {
		b.Fatal(err)
	}
	last, err := p.Partition(traj.Dataset{Name: ds.Name, Trajectories: ds.Trajectories[trips-batch : trips]})
	if err != nil {
		b.Fatal(err)
	}
	head := len(frags) - len(last) // the first 1,248 trips' fragments
	relabel := make(map[traj.ID]traj.ID, trips)
	for i, id := range rand.New(rand.NewSource(1)).Perm(trips) {
		relabel[ds.Trajectories[i].ID] = traj.ID(id)
	}
	permuted := make([]traj.TFragment, len(frags))
	for i, f := range frags {
		f.Traj = relabel[f.Traj]
		permuted[i] = f
	}
	cfg := neat.DefaultConfig()
	ctx := context.Background()
	for _, ids := range []struct {
		name  string
		frags []traj.TFragment
	}{{"ids=ascending", frags}, {"ids=permuted", permuted}} {
		_, kept, err := p.BuildFlowSet(ctx, nil, ids.frags[:head], cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, fold := range []struct {
			name  string
			kept  *neat.ClusterSet
			frags []traj.TFragment
		}{{"fold=batch", kept, ids.frags[head:]}, {"fold=all", nil, ids.frags}} {
			b.Run(fold.name+"/"+ids.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					fs, _, err := p.BuildFlowSet(ctx, fold.kept, fold.frags, cfg)
					if err != nil {
						b.Fatal(err)
					}
					flowSetSink = fs
				}
			})
		}
	}
}
