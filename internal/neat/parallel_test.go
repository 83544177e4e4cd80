package neat

import (
	"context"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/proptest"
)

func TestRunParallelMatchesRun(t *testing.T) {
	g, ds := proptest.SimScenario(t, 60)
	p := NewPipeline(g)
	cfg := DefaultConfig()
	cfg.Refine.Epsilon = 2000

	serial, err := p.Run(ds, cfg, LevelOpt)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 4} {
		par, err := p.RunParallel(ds, cfg, LevelOpt, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if par.NumFragments != serial.NumFragments {
			t.Errorf("workers=%d: fragments %d vs %d", workers, par.NumFragments, serial.NumFragments)
		}
		if len(par.Flows) != len(serial.Flows) || len(par.Clusters) != len(serial.Clusters) {
			t.Errorf("workers=%d: flows/clusters %d/%d vs %d/%d", workers,
				len(par.Flows), len(par.Clusters), len(serial.Flows), len(serial.Clusters))
		}
		for i := range par.Flows {
			if len(par.Flows[i].Route) != len(serial.Flows[i].Route) {
				t.Errorf("workers=%d: flow %d route length differs", workers, i)
			}
		}
	}
}

func BenchmarkPhase1SerialVsParallel(b *testing.B) {
	g, ds := proptest.SimScenario(b, 200)
	p := NewPipeline(g)
	cfg := DefaultConfig()
	cfg.Refine.Epsilon = 2000
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p.Run(ds, cfg, LevelBase); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p.RunParallel(ds, cfg, LevelBase, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestPipelineConcurrentUse runs plans and flow-set reads from several
// goroutines on one instrumented, traced pipeline (run under -race):
// every run renders like the same run alone on a fresh pipeline, and
// the metrics count every run.
func TestPipelineConcurrentUse(t *testing.T) {
	g, ds := genInstance(t, 7)
	cfg := Config{
		Flow:   FlowConfig{Weights: WeightsBalanced, MinCard: 1, Beta: 2},
		Refine: RefineConfig{Epsilon: 1200, MinPts: 1},
	}
	ref := NewPipeline(g)
	frags, err := ref.Partition(ds)
	if err != nil {
		t.Fatal(err)
	}
	fs, _, err := ref.BuildFlowSet(context.Background(), nil, frags, cfg)
	if err != nil {
		t.Fatal(err)
	}
	runs := []func(p *Pipeline) (*Result, error){
		func(p *Pipeline) (*Result, error) { return p.Run(ds, cfg, LevelOpt) },
		func(p *Pipeline) (*Result, error) { return p.RunParallel(ds, cfg, LevelOpt, 2) },
		func(p *Pipeline) (*Result, error) { return p.RunFragments(frags, cfg, LevelOpt) },
		func(p *Pipeline) (*Result, error) { return p.RunFlowSet(context.Background(), fs, cfg, LevelOpt) },
	}
	want := make([]string, len(runs))
	for i, run := range runs {
		res, err := run(NewPipeline(g))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = renderResult(res)
	}

	reg := obs.NewRegistry()
	p := NewPipeline(g)
	p.Instrument(reg)
	p.EnableTracing(true)
	const rounds = 3
	var wg sync.WaitGroup
	for i := range runs {
		for r := 0; r < rounds; r++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				res, err := runs[i](p)
				if err != nil {
					t.Error(err)
				} else if got := renderResult(res); got != want[i] {
					t.Errorf("run %d on the shared pipeline diverges:\n%s\nwant\n%s", i, got, want[i])
				} else if res.Trace == nil {
					t.Errorf("run %d: no trace", i)
				}
			}(i)
		}
	}
	wg.Wait()
	if n := reg.Counter("neat_runs_total").Value(); n != int64(len(runs)*rounds) {
		t.Fatalf("neat_runs_total = %d, want %d", n, len(runs)*rounds)
	}
}
