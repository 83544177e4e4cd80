package neat

import (
	"math/rand"
	"testing"

	"repro/internal/distcache"
	"repro/internal/proptest"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// identicalClusters demands byte-identical output: the same clusters,
// in the same order, each holding the same flow pointers in the same
// order. This is stronger than the multiset comparison of
// refine_equiv_test.go — the batched builder promises a deterministic
// merge, not merely an equivalent partition.
func identicalClusters(a, b []*TrajectoryCluster) bool {
	if len(a) != len(b) {
		return false
	}
	for ci := range a {
		if len(a[ci].Flows) != len(b[ci].Flows) {
			return false
		}
		for fi := range a[ci].Flows {
			if a[ci].Flows[fi] != b[ci].Flows[fi] {
				return false
			}
		}
	}
	return true
}

// TestRefineWorkersEquivalence is the parallel counterpart of
// TestRefineOptimizationEquivalence: for every SPAlgo kernel and
// worker count, RefineFlows must produce clusters identical to the
// serial scan — same order, same flow pointers — and identical
// ELBPruned and Pairs accounting. Outside the batched builder Workers
// must change nothing at all: the run reports Workers 0 and, with no
// cache attached, the serial run's exact shortest-path work.
func TestRefineWorkersEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 12; trial++ {
		g, frags := proptest.RandomScenario(t, rng)
		bs := FormBaseClusters(frags)
		flows, _, err := FormFlowClusters(g, bs, FlowConfig{})
		if err != nil {
			t.Fatal(err)
		}
		eps := 200 + rng.Float64()*2500

		for _, base := range []RefineConfig{
			{Epsilon: eps},
			{Epsilon: eps, UseELB: true},
			{Epsilon: eps, UseELB: true, Bounded: true},
			{Epsilon: eps, UseELB: true, Cache: distcache.New(0)},
			{Epsilon: eps, Algo: SPAStar, UseELB: true},
			{Epsilon: eps, Algo: SPBidirectional},
			{Epsilon: eps, Algo: SPALT, UseELB: true},
			{Epsilon: eps, Algo: SPCH, UseELB: true, Cache: distcache.New(0)},
		} {
			want, wantStats, err := RefineFlows(g, flows, base)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 8} {
				cfg := base
				cfg.Workers = workers
				got, gotStats, err := RefineFlows(g, flows, cfg)
				if err != nil {
					t.Fatalf("trial %d algo %v workers %d: %v", trial, base.Algo, workers, err)
				}
				if !identicalClusters(want, got) {
					t.Fatalf("trial %d algo %v workers %d: clusters differ from serial", trial, base.Algo, workers)
				}
				if gotStats.Pairs != wantStats.Pairs {
					t.Errorf("trial %d algo %v workers %d: Pairs %d vs serial %d",
						trial, base.Algo, workers, gotStats.Pairs, wantStats.Pairs)
				}
				if gotStats.ELBPruned != wantStats.ELBPruned {
					t.Errorf("trial %d algo %v workers %d: ELBPruned %d vs serial %d",
						trial, base.Algo, workers, gotStats.ELBPruned, wantStats.ELBPruned)
				}
				if cfg.batched() {
					if wantStats.Pairs > 0 && gotStats.Workers == 0 {
						t.Errorf("trial %d algo %v workers %d: stats claim serial path ran", trial, base.Algo, workers)
					}
					continue
				}
				if gotStats.Workers != 0 {
					t.Errorf("trial %d algo %v workers %d: stats report %d workers outside the batched builder",
						trial, base.Algo, workers, gotStats.Workers)
				}
				if base.Cache == nil && (gotStats.SPQueries != wantStats.SPQueries || gotStats.SettledNodes != wantStats.SettledNodes) {
					t.Errorf("trial %d algo %v workers %d: SPQueries/SettledNodes %d/%d vs serial %d/%d",
						trial, base.Algo, workers, gotStats.SPQueries, gotStats.SettledNodes,
						wantStats.SPQueries, wantStats.SettledNodes)
				}
			}
		}
	}
}

// TestRefineWorkersDeterministicRepeat re-runs Workers≠0 configs — the
// batched builder for Dijkstra, the serial scan for A* — and demands
// run-to-run identical output (goroutine scheduling must not leak into
// the result).
func TestRefineWorkersDeterministicRepeat(t *testing.T) {
	g, ds := proptest.BenchScenario(t, 100)
	flows := benchFlows(t, g, ds)
	for _, algo := range []SPAlgo{SPDijkstra, SPAStar} {
		cfg := RefineConfig{Epsilon: 1200, UseELB: true, Bounded: true, Algo: algo, Workers: 4}
		first, firstStats, err := RefineFlows(g, flows, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 3; run++ {
			again, stats, err := RefineFlows(g, flows, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !identicalClusters(first, again) {
				t.Fatalf("algo %v run %d: output changed between runs", algo, run)
			}
			if stats.ELBPruned != firstStats.ELBPruned || stats.SPQueries != firstStats.SPQueries {
				t.Errorf("algo %v run %d: stats changed between runs (%+v vs %+v)",
					algo, run, stats, firstStats)
			}
		}
	}
}

// TestRefineBatchedStats checks the batched path's work accounting:
// expansions bounded by distinct endpoints, pair pruning consistent
// with ELB semantics, and far fewer shortest-path computations than
// the serial four-per-pair scan.
func TestRefineBatchedStats(t *testing.T) {
	g, ds := proptest.BenchScenario(t, 150)
	flows := benchFlows(t, g, ds)
	if len(flows) < 20 {
		t.Fatalf("scenario too small: %d flows", len(flows))
	}
	cfg := RefineConfig{Epsilon: 1200, UseELB: true, Workers: 2}
	_, serialStats, err := RefineFlows(g, flows, RefineConfig{Epsilon: 1200, UseELB: true, Bounded: true})
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := RefineFlows(g, flows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Expansions == 0 {
		t.Fatal("batched path ran no expansions")
	}
	if stats.Expansions > int64(2*len(flows)) {
		t.Errorf("expansions %d exceed 2F = %d", stats.Expansions, 2*len(flows))
	}
	if stats.SPQueries != stats.Expansions {
		t.Errorf("batched SPQueries %d != Expansions %d", stats.SPQueries, stats.Expansions)
	}
	if stats.ELBPruned != serialStats.ELBPruned {
		t.Errorf("batched ELBPruned %d != serial %d", stats.ELBPruned, serialStats.ELBPruned)
	}
	if stats.PrunedPairs != stats.ELBPruned {
		t.Errorf("with UseELB, PrunedPairs %d should equal ELBPruned %d", stats.PrunedPairs, stats.ELBPruned)
	}
	if stats.SPQueries >= serialStats.SPQueries {
		t.Errorf("batched issued %d computations, serial %d — batching should collapse the count",
			stats.SPQueries, serialStats.SPQueries)
	}
	if stats.GraphTime <= 0 || stats.ClusterTime < 0 {
		t.Errorf("phase timers not recorded: %+v", stats)
	}
}

func benchFlows(t testing.TB, g *roadnet.Graph, ds traj.Dataset) []*FlowCluster {
	t.Helper()
	p := NewPipeline(g)
	cfg := DefaultConfig()
	cfg.Flow.MinCard = 1
	res, err := p.Run(ds, cfg, LevelFlow)
	if err != nil {
		t.Fatal(err)
	}
	return res.Flows
}

// BenchmarkPhase3Refine compares the two ε-graph builders at
// increasing flow counts: the serial pairwise scan (the paper's
// Phase 3) and the batched one-to-many builder. Both produce identical
// clusters; the batched builder additionally collapses the query count
// from ~4·F²/2 point-to-point probes to at most 2F expansions, so it
// wins even on one core.
//
// The cache=warm cases time a read against a distance cache that an
// earlier read at a wider ε filled, the way the server's parameter
// sweep reads follow its warm-up reads: every distance hits, so they
// measure the builder's own bookkeeping rather than shortest paths.
func BenchmarkPhase3Refine(b *testing.B) {
	const eps, warmEps = 1200, 1500
	for _, objects := range []int{100, 200, 400} {
		g, ds := proptest.BenchScenario(b, objects)
		flows := benchFlows(b, g, ds)
		for _, mode := range []struct {
			name string
			cfg  RefineConfig
		}{
			{"serial", RefineConfig{Epsilon: eps, UseELB: true, Bounded: true}},
			{"batched", RefineConfig{Epsilon: eps, UseELB: true, Workers: -1}},
		} {
			b.Run(mode.name+"/flows="+itoa(len(flows)), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := RefineFlows(g, flows, mode.cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(mode.name+"/cache=warm/flows="+itoa(len(flows)), func(b *testing.B) {
				cfg := mode.cfg
				cfg.Cache = distcache.New(0)
				warm := cfg
				warm.Epsilon = warmEps
				if _, _, err := RefineFlows(g, flows, warm); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := RefineFlows(g, flows, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
