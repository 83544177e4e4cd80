package neat_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/distcache"
	"repro/internal/experiments"
	"repro/internal/mobisim"
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

// resultSink keeps BenchmarkRunFlowSetSweep's result live.
var resultSink *neat.Result

// BenchmarkRunFlowSetSweep times the reads of a parameter sweep over
// one flow set, as the server answers them: 1,000 uniform ATL@0.5
// trips folded by BuildFlowSet with the server's flow settings, three
// warm-up reads at ε 1500 for minCard 3–5 on a shared distance cache,
// then one read per op over the 150 keys ε 500–1480 (step 20) ×
// minCard 3–5 in a seeded order, with the server's Phase 3 settings.
// The warm-ups leave the ε 1500, minCard 3 pair table kept on the set,
// and every timed read is one it answers.
func BenchmarkRunFlowSetSweep(b *testing.B) {
	env, err := experiments.NewEnv(0.5)
	if err != nil {
		b.Fatal(err)
	}
	g, err := env.Graph("ATL")
	if err != nil {
		b.Fatal(err)
	}
	ds, _, err := mobisim.New(g).SimulateModel(mobisim.DefaultConfig("ATL-uniform", 1000, 1), mobisim.TripUniform)
	if err != nil {
		b.Fatal(err)
	}
	p := neat.NewPipeline(g)
	frags, err := p.Partition(ds)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	fs, _, err := p.BuildFlowSet(ctx, nil, frags, neat.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	cache := distcache.New(0)
	read := func(eps float64, minCard int) {
		cfg := neat.DefaultConfig()
		cfg.Flow.MinCard = minCard
		cfg.Refine = neat.RefineConfig{Epsilon: eps, UseELB: true, Bounded: true, Workers: -1, Cache: cache}
		res, err := p.RunFlowSet(ctx, fs, cfg, neat.LevelOpt)
		if err != nil {
			b.Fatal(err)
		}
		resultSink = res
	}
	for mc := 3; mc <= 5; mc++ {
		read(1500, mc)
	}
	type key struct {
		eps     float64
		minCard int
	}
	var keys []key
	for eps := 500; eps < 1500; eps += 20 {
		for mc := 3; mc <= 5; mc++ {
			keys = append(keys, key{float64(eps), mc})
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		read(k.eps, k.minCard)
	}
}
