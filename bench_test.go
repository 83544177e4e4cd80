package repro

import (
	"sync"
	"testing"

	"repro/internal/experiments"
	"repro/internal/neat"
	"repro/internal/traclus"
	"repro/internal/traj"
)

// benchScale keeps the benchmark corpus small enough that the full
// suite (including the quadratic TraClus baseline) completes in
// seconds; cmd/neatbench runs the same experiments at larger scales.
const benchScale = 0.02

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
)

func env(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() {
		e, err := experiments.NewEnv(benchScale)
		if err != nil {
			panic(err)
		}
		benchEnv = e
	})
	return benchEnv
}

func dataset(b *testing.B, region string, objects int) traj.Dataset {
	b.Helper()
	ds, err := env(b).Dataset(region, objects)
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(e, id, ""); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableI regenerates Table I (road-network statistics).
func BenchmarkTableI(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkTableII regenerates Table II (dataset point counts).
func BenchmarkTableII(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkTableIII regenerates Table III (opt-NEAT flow counts, SJ).
func BenchmarkTableIII(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkFig3 measures the Fig 3 pipeline: opt-NEAT over ATL500.
func BenchmarkFig3(b *testing.B) {
	e := env(b)
	g, err := e.Graph("ATL")
	if err != nil {
		b.Fatal(err)
	}
	ds := dataset(b, "ATL", 500)
	p := neat.NewPipeline(g)
	cfg := e.NEATConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Run(ds, cfg, neat.LevelOpt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4 measures the Fig 4 baseline: TraClus over ATL500 at
// the paper's primary setting.
func BenchmarkFig4(b *testing.B) {
	ds := dataset(b, "ATL", 500)
	cfg := traclus.Config{Epsilon: 10, MinLns: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := traclus.Run(ds, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5d reproduces the Fig 5(d) running-time comparison as
// sub-benchmarks: NEAT vs TraClus on the ATL series. The reported
// ns/op ratios are the semi-log gap the paper plots.
func BenchmarkFig5d(b *testing.B) {
	e := env(b)
	g, err := e.Graph("ATL")
	if err != nil {
		b.Fatal(err)
	}
	for _, objects := range experiments.PaperObjectCounts {
		ds := dataset(b, "ATL", objects)
		b.Run("NEAT/"+ds.Name, func(b *testing.B) {
			p := neat.NewPipeline(g)
			cfg := e.NEATConfig()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Run(ds, cfg, neat.LevelOpt); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("TraClus/"+ds.Name, func(b *testing.B) {
			cfg := traclus.Config{Epsilon: 10, MinLns: 2}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := traclus.Run(ds, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6a reproduces the Fig 6(a) scaling curves: base-, flow-,
// and opt-NEAT across the MIA series.
func BenchmarkFig6a(b *testing.B) {
	e := env(b)
	g, err := e.Graph("MIA")
	if err != nil {
		b.Fatal(err)
	}
	levels := []neat.Level{neat.LevelBase, neat.LevelFlow, neat.LevelOpt}
	for _, objects := range experiments.PaperObjectCounts {
		ds := dataset(b, "MIA", objects)
		for _, level := range levels {
			b.Run(level.String()+"/"+ds.Name, func(b *testing.B) {
				p := neat.NewPipeline(g)
				cfg := e.NEATConfig()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := p.Run(ds, cfg, level); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig7 reproduces the Fig 7 refinement comparison: Phase 3
// with ELB+bounded expansion versus full Dijkstra, on the SJ series
// (whose flow counts drive the cost, per Table III).
func BenchmarkFig7(b *testing.B) {
	e := env(b)
	g, err := e.Graph("SJ")
	if err != nil {
		b.Fatal(err)
	}
	for _, objects := range experiments.PaperObjectCounts {
		ds := dataset(b, "SJ", objects)
		p := neat.NewPipeline(g)
		flowRes, err := p.Run(ds, e.NEATConfig(), neat.LevelFlow)
		if err != nil {
			b.Fatal(err)
		}
		for _, mode := range []struct {
			name string
			cfg  neat.RefineConfig
		}{
			{"ELB", neat.RefineConfig{Epsilon: e.Epsilon(6500), UseELB: true, Bounded: true}},
			{"Dijkstra", neat.RefineConfig{Epsilon: e.Epsilon(6500), UseELB: false, Bounded: false}},
			{"Batched", neat.RefineConfig{Epsilon: e.Epsilon(6500), UseELB: true, Workers: -1}},
		} {
			b.Run(mode.name+"/"+ds.Name, func(b *testing.B) {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := neat.RefineFlows(g, flowRes.Flows, mode.cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkVariant reproduces the §IV.C hybrid comparison: TraClus
// grouping over base clusters with network Hausdorff vs full NEAT.
func BenchmarkVariant(b *testing.B) {
	e := env(b)
	g, err := e.Graph("SJ")
	if err != nil {
		b.Fatal(err)
	}
	ds := dataset(b, "SJ", 2000)
	p := neat.NewPipeline(g)
	res, err := p.Run(ds, e.NEATConfig(), neat.LevelBase)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("hybrid", func(b *testing.B) {
		cfg := traclus.VariantConfig{Epsilon: e.Epsilon(1500), MinLns: 2}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := traclus.RunVariant(g, res.BaseClusters, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("NEAT", func(b *testing.B) {
		cfg := e.NEATConfig()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.Run(ds, cfg, neat.LevelOpt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationWeights measures Phase 2 under each weight preset
// (DESIGN.md design decision 4).
func BenchmarkAblationWeights(b *testing.B) {
	e := env(b)
	g, err := e.Graph("ATL")
	if err != nil {
		b.Fatal(err)
	}
	ds := dataset(b, "ATL", 500)
	p := neat.NewPipeline(g)
	frags, err := p.Partition(ds)
	if err != nil {
		b.Fatal(err)
	}
	presets := []struct {
		name string
		w    neat.Weights
	}{
		{"flow", neat.WeightsFlowOnly},
		{"density", neat.WeightsDensityOnly},
		{"speed", neat.WeightsSpeedOnly},
		{"balanced", neat.WeightsBalanced},
	}
	for _, preset := range presets {
		b.Run(preset.name, func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				base := neat.FormBaseClusters(frags)
				if _, _, err := neat.FormFlowClusters(g, base, neat.FlowConfig{Weights: preset.w, MinCard: 5}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationBeta measures Phase 2 across domination thresholds
// (DESIGN.md design decision 2).
func BenchmarkAblationBeta(b *testing.B) {
	e := env(b)
	g, err := e.Graph("ATL")
	if err != nil {
		b.Fatal(err)
	}
	ds := dataset(b, "ATL", 500)
	p := neat.NewPipeline(g)
	frags, err := p.Partition(ds)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		beta float64
	}{{"inf", 0}, {"beta10", 10}, {"beta2", 2}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				base := neat.FormBaseClusters(frags)
				if _, _, err := neat.FormFlowClusters(g, base, neat.FlowConfig{Weights: neat.WeightsFlowOnly, Beta: bc.beta, MinCard: 5}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSP measures Phase 3 under each shortest-path kernel
// (DESIGN.md design decision 5).
func BenchmarkAblationSP(b *testing.B) {
	e := env(b)
	g, err := e.Graph("ATL")
	if err != nil {
		b.Fatal(err)
	}
	ds := dataset(b, "ATL", 500)
	p := neat.NewPipeline(g)
	flowRes, err := p.Run(ds, e.NEATConfig(), neat.LevelFlow)
	if err != nil {
		b.Fatal(err)
	}
	for _, algo := range []neat.SPAlgo{neat.SPDijkstra, neat.SPAStar, neat.SPBidirectional, neat.SPALT, neat.SPCH} {
		// workers 0 = the serial scan; -1 = all CPUs, which for the
		// Dijkstra kernel dispatches to the batched one-to-many builder.
		// Every other kernel runs the serial scan whatever Workers says,
		// so it has no parallel variant.
		workerCounts := []int{0}
		if algo == neat.SPDijkstra {
			workerCounts = append(workerCounts, -1)
		}
		for _, workers := range workerCounts {
			name := algo.String()
			if workers != 0 {
				name += "/parallel"
			}
			b.Run(name, func(b *testing.B) {
				cfg := neat.RefineConfig{
					Epsilon: e.Epsilon(6500),
					UseELB:  true,
					Bounded: algo == neat.SPDijkstra,
					Algo:    algo,
					Workers: workers,
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := neat.RefineFlows(g, flowRes.Flows, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
