package neat

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/distcache"
	"repro/internal/fault"
	"repro/internal/proptest"
)

// tableScenario is the flow set a server builds over a diffuse pool:
// uniform trips, partitioned and folded by BuildFlowSet.
func tableScenario(t *testing.T, objects int) (*Pipeline, *FlowSet) {
	t.Helper()
	g, ds := proptest.BenchScenario(t, objects)
	p := NewPipeline(g)
	frags, err := p.Partition(ds)
	if err != nil {
		t.Fatal(err)
	}
	fs, _, err := p.BuildFlowSet(context.Background(), nil, frags, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return p, fs
}

// serialRead is the reference for a read: a cacheless serial scan of
// the flow set's flows at minCard, with its adjacency.
func serialRead(t *testing.T, p *Pipeline, fs *FlowSet, eps float64, minCard int) (*EpsGraph, []*TrajectoryCluster, RefineStats) {
	t.Helper()
	flows, _ := filterFlows(fs.Flows, minCard)
	eg, err := NewEpsGraph(p.g, RefineConfig{Epsilon: eps, UseELB: true, Bounded: true})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := eg.Extend(context.Background(), flows)
	if err != nil {
		t.Fatal(err)
	}
	clusters, _, err := eg.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	return eg, clusters, stats
}

// TestKeptTableDifferential drives one flow set through batched reads
// whose ε goes down and back up and whose minCard goes up and down,
// on a shared cache and then with none. The kept table must answer
// exactly the reads it covers (minCard at least its own, ε at most its
// own), with no distance work; a read that covers it on both axes must
// replace it, and one that covers it on one axis only must build
// through the cache and leave it kept. Every read must equal a
// cacheless serial scan: the clusters, Pairs and ELBPruned, the grid's
// PrunedPairs (the ELB's prunes, with UseELB), and the adjacency row
// for row, order included. Reads at the boundaries of kept entries
// follow: ε equal to an entry's h (the pair is an edge), to an entry's
// minE (the pair is a candidate), and the next float below each (it is
// not). A table read must also stop on a cancelled context and draw no
// fault.
func TestKeptTableDifferential(t *testing.T) {
	p, fs0 := tableScenario(t, 200)
	type key struct {
		eps     float64
		minCard int
	}
	type read struct {
		key
		table bool // the kept table answers it
		kept  key  // the kept table after it
	}
	reads := []read{
		{key{1000, 4}, false, key{1000, 4}}, // first read: builds and keeps
		{key{800, 5}, true, key{1000, 4}},
		{key{1000, 4}, true, key{1000, 4}},  // the table's own key
		{key{600, 4}, true, key{1000, 4}},   // ε down
		{key{900, 5}, true, key{1000, 4}},   // and back up
		{key{1200, 5}, false, key{1000, 4}}, // wider ε only: kept stays
		{key{700, 3}, false, key{1000, 4}},  // lower minCard only: kept stays
		{key{950, 4}, true, key{1000, 4}},
		{key{1300, 3}, false, key{1300, 3}}, // covers both axes: replaces
		{key{1300, 5}, true, key{1300, 3}},  // minCard up
		{key{500, 3}, true, key{1300, 3}},   // minCard down, ε down
		{key{1250, 4}, true, key{1300, 3}},
		{key{1300, 3}, true, key{1300, 3}},
	}
	for _, cache := range []*distcache.Cache{distcache.New(0), nil} {
		fs := &FlowSet{BaseClusters: fs0.BaseClusters, Flows: fs0.Flows}
		check := func(name string, r read) {
			t.Helper()
			flows, _ := filterFlows(fs.Flows, r.minCard)
			cfg := RefineConfig{Epsilon: r.eps, UseELB: true, Workers: -1, Cache: cache}.withDefaults()
			cfg.Cache.SetScope(cacheScope(p.g, cfg))
			var stats RefineStats
			adj, err := fs.epsGraph(context.Background(), p.g, flows, r.minCard, cfg, &stats)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got, err := clusterEpsGraph(p.g, flows, adj, cfg)
			if err != nil {
				t.Fatal(err)
			}
			eg, want, wantStats := serialRead(t, p, fs, r.eps, r.minCard)
			if !sameClusters(want, got) {
				t.Fatalf("%s: clustering differs from the cacheless serial scan", name)
			}
			if stats.Pairs != wantStats.Pairs || stats.ELBPruned != wantStats.ELBPruned || stats.PrunedPairs != wantStats.ELBPruned {
				t.Fatalf("%s: Pairs/ELBPruned/PrunedPairs %d/%d/%d, serial Pairs/ELBPruned %d/%d",
					name, stats.Pairs, stats.ELBPruned, stats.PrunedPairs, wantStats.Pairs, wantStats.ELBPruned)
			}
			for i := range flows {
				if !slices.Equal(adj[i], eg.adjacency[i]) {
					t.Fatalf("%s: flow %d row %v, serial %v", name, i, adj[i], eg.adjacency[i])
				}
			}
			if stats.FromTable != r.table {
				t.Fatalf("%s: FromTable %v, want %v", name, stats.FromTable, r.table)
			}
			work := stats.SPQueries + stats.SettledNodes + stats.Expansions + stats.CacheHits + stats.CacheMisses
			if r.table && work != 0 {
				t.Fatalf("%s: table read did distance work: %+v", name, stats)
			}
			if !r.table && cache != nil && stats.CacheHits+stats.CacheMisses == 0 {
				t.Fatalf("%s: build never probed the cache: %+v", name, stats)
			}
			if kept := fs.table.Load(); kept == nil {
				t.Fatalf("%s: no table kept", name)
			} else if kept.eps != r.kept.eps || kept.minCard != r.kept.minCard {
				t.Fatalf("%s: kept table ε %g minCard %d, want ε %g minCard %d", name, kept.eps, kept.minCard, r.kept.eps, r.kept.minCard)
			}
		}
		for ri, r := range reads {
			check(fmt.Sprintf("cache %v read %d (ε %g minCard %d)", cache != nil, ri, r.eps, r.minCard), r)
		}

		// Boundary reads at the kept table's minCard, where every entry
		// is in the read: the h of edges a quarter, half and three
		// quarters through the entries with minE < h < ε, and the minE
		// of the middle candidate with 0 < minE < h; each exactly, then
		// the next float below.
		kept := fs.table.Load()
		var edges, cands []int
		for k := range kept.col {
			if kept.minE[k] < kept.h[k] && kept.h[k] < kept.eps {
				edges = append(edges, k)
			}
			if kept.minE[k] > 0 && kept.minE[k] < kept.h[k] {
				cands = append(cands, k)
			}
		}
		if len(edges) < 4 || len(cands) == 0 {
			t.Fatalf("cache %v: kept table has %d interior edges and %d candidates", cache != nil, len(edges), len(cands))
		}
		bounds := []float64{kept.h[edges[len(edges)/4]], kept.h[edges[len(edges)/2]], kept.h[edges[3*len(edges)/4]], kept.minE[cands[len(cands)/2]]}
		for bi, eps := range bounds {
			for _, e := range []float64{eps, math.Nextafter(eps, 0)} {
				r := reads[len(reads)-1]
				r.eps = e
				check(fmt.Sprintf("cache %v boundary %d (ε %v minCard %d)", cache != nil, bi, e, r.minCard), r)
			}
		}

		// A table read honours a cancelled context before its pass,
		// and draws no shortest-path or cache-lookup fault: it
		// computes no distance and probes no cache.
		flows, _ := filterFlows(fs.Flows, 4)
		inj := fault.New(fault.Config{Seed: 1, Points: map[fault.Point]fault.Spec{
			fault.SPQuery:     {ErrProb: 1},
			fault.CacheLookup: {ErrProb: 1},
		}})
		cache.InjectFaults(inj)
		cfg := RefineConfig{Epsilon: 900, UseELB: true, Workers: -1, Cache: cache, Fault: inj}.withDefaults()
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		var stats RefineStats
		if _, err := fs.epsGraph(cancelled, p.g, flows, 4, cfg, &stats); !errors.Is(err, context.Canceled) {
			t.Fatalf("cache %v: table read under a cancelled context returned %v", cache != nil, err)
		}
		stats = RefineStats{}
		if _, err := fs.epsGraph(context.Background(), p.g, flows, 4, cfg, &stats); err != nil || !stats.FromTable {
			t.Fatalf("cache %v: faulted table read: FromTable %v, err %v", cache != nil, stats.FromTable, err)
		}
		if n := inj.TotalInjected(); n != 0 {
			t.Fatalf("cache %v: table read drew %d faults", cache != nil, n)
		}
	}
}

// TestKeptTableConcurrentReads runs RunFlowSet from several goroutines
// on one flow set, each through its own pipeline, with different keys
// in different orders on one shared cache: the kept table is read and
// replaced while other reads use it. Every answer must equal its
// key's serial reference, and a traced read names the table that
// served it. Run it under the race detector.
func TestKeptTableConcurrentReads(t *testing.T) {
	p, fs := tableScenario(t, 120)
	type key struct {
		eps     float64
		minCard int
	}
	var keys []key
	for _, eps := range []float64{600, 900, 1200, 1500} {
		for mc := 3; mc <= 5; mc++ {
			keys = append(keys, key{eps, mc})
		}
	}
	want := make(map[key][]*TrajectoryCluster, len(keys))
	for _, k := range keys {
		_, want[k], _ = serialRead(t, p, fs, k.eps, k.minCard)
	}
	cache := distcache.New(0)
	const readers = 4
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		order := slices.Clone(keys)
		rand.New(rand.NewSource(int64(r))).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		wg.Add(1)
		go func() {
			defer wg.Done()
			rp := NewPipeline(p.g)
			for _, k := range order {
				cfg := DefaultConfig()
				cfg.Flow.MinCard = k.minCard
				cfg.Refine = RefineConfig{Epsilon: k.eps, UseELB: true, Bounded: true, Workers: -1, Cache: cache}
				res, err := rp.RunFlowSet(context.Background(), fs, cfg, LevelOpt)
				if err != nil {
					t.Error(err)
					return
				}
				if !sameClusters(want[k], res.Clusters) {
					t.Errorf("ε %g minCard %d: clustering differs from the serial scan", k.eps, k.minCard)
				}
			}
		}()
	}
	wg.Wait()

	// Every reader has read ε 1500 at minCard 3, so that table is kept
	// and answers a narrower read; a wider one builds.
	p.EnableTracing(true)
	for _, r := range []struct {
		eps   float64
		table string
	}{{1100, "kept"}, {1600, "built"}} {
		cfg := DefaultConfig()
		cfg.Flow.MinCard = 4
		cfg.Refine = RefineConfig{Epsilon: r.eps, UseELB: true, Workers: -1, Cache: cache}
		res, err := p.RunFlowSet(context.Background(), fs, cfg, LevelOpt)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Trace.Find("phase3.eps_graph").LabelMap()["pair_table"]; got != r.table {
			t.Errorf("ε %g: eps_graph span says pair_table %q, want %q", r.eps, got, r.table)
		}
		if res.RefineStats.FromTable != (r.table == "kept") {
			t.Errorf("ε %g: FromTable %v", r.eps, res.RefineStats.FromTable)
		}
	}
}

// TestKeptTableBoundedByCache pins the keep bound: a read whose table
// holds more entries than the read's distance cache does builds and
// answers as any other, but does not replace the kept table, so a
// narrower read after it is still answered from the kept one.
func TestKeptTableBoundedByCache(t *testing.T) {
	p, fs := tableScenario(t, 200)
	read := func(eps float64, minCard int, cache *distcache.Cache) RefineStats {
		t.Helper()
		cfg := DefaultConfig()
		cfg.Flow.MinCard = minCard
		cfg.Refine = RefineConfig{Epsilon: eps, UseELB: true, Bounded: true, Workers: -1, Cache: cache}
		res, err := p.RunFlowSet(context.Background(), fs, cfg, LevelOpt)
		if err != nil {
			t.Fatal(err)
		}
		if _, want, _ := serialRead(t, p, fs, eps, minCard); !sameClusters(want, res.Clusters) {
			t.Fatalf("ε %g minCard %d: clustering differs from the serial scan", eps, minCard)
		}
		return res.RefineStats
	}
	read(800, 4, distcache.New(0))
	kept := fs.table.Load()
	if kept == nil {
		t.Fatal("first read kept no table")
	}
	// A cache just large enough for the kept table's entries, far too
	// small for the pairs within 2 km.
	small := distcache.New(len(kept.col) + 64)
	if st := read(2000, 3, small); st.FromTable {
		t.Fatal("a read the kept table does not cover was answered from it")
	}
	if got := fs.table.Load(); got != kept {
		t.Fatalf("a table over the cache's %d entries replaced the kept one", small.Cap())
	}
	if st := read(700, 5, small); !st.FromTable {
		t.Fatal("a read the kept table covers was not answered from it")
	}
	if keepLimit(distcache.New(0)) != distcache.DefaultEntries || keepLimit(nil) != distcache.DefaultEntries {
		t.Fatalf("keep limits %d (default cache) and %d (none)", keepLimit(distcache.New(0)), keepLimit(nil))
	}
}
