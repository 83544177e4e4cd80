package neat

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/distcache"
	"repro/internal/geo"
	"repro/internal/proptest"
)

// TestJunctionNeighborsMatchBruteForce pins the batched builder's
// Euclidean pre-filter against an all-pairs scan: the upper rows list
// exactly the v > u within ε, in any order. It then pins the lower
// rows a build's predicate pass mirrors from them (csr.transpose with
// the distances as payload): row v lists exactly the u < v within ε,
// ascending, each with its pair's distance. The cases cover coincident
// points, a radius on a cell boundary, a single point, and a tiny
// radius over a wide extent, where the cell size must grow to cap the
// cell count.
func TestJunctionNeighborsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	random := func(n int, w, h float64) []geo.Point {
		pts := make([]geo.Point, n)
		for i := range pts {
			pts[i] = geo.Pt(rng.Float64()*w, rng.Float64()*h)
		}
		return pts
	}
	cases := []struct {
		name string
		pts  []geo.Point
		eps  float64
	}{
		{"single", []geo.Point{geo.Pt(3, 4)}, 10},
		{"coincident", []geo.Point{geo.Pt(1, 1), geo.Pt(1, 1), geo.Pt(1, 1), geo.Pt(9, 1)}, 0.5},
		{"on the radius", []geo.Point{geo.Pt(0, 0), geo.Pt(100, 0), geo.Pt(200, 0), geo.Pt(0, 100)}, 100},
		{"collinear", random(40, 5000, 0), 300},
		{"tiny radius, wide extent", append(random(50, 1e7, 1e7), geo.Pt(0, 0), geo.Pt(0, 1e-3)), 1e-3},
	}
	for trial := 0; trial < 20; trial++ {
		cases = append(cases, struct {
			name string
			pts  []geo.Point
			eps  float64
		}{"random", random(1+rng.Intn(300), 5000, 3000), rng.Float64() * 1200})
	}
	for ci, tc := range cases {
		n := len(tc.pts)
		upper := junctionNeighbors(tc.pts, tc.eps)
		if len(upper.off) != n+1 {
			t.Fatalf("case %d (%s): %d row offsets for %d points", ci, tc.name, len(upper.off), n)
		}
		// The Euclidean distances double as the network ones, so each
		// entry must carry its own pair's into the mirror.
		dist := make([]float64, len(upper.val))
		for u := range tc.pts {
			for k := upper.off[u]; k < upper.off[u+1]; k++ {
				dist[k] = tc.pts[upper.val[k]].Dist(tc.pts[u])
			}
		}
		for u := range tc.pts {
			var wantUp []int32
			for v := u + 1; v < n; v++ {
				if tc.pts[v].Dist(tc.pts[u]) <= tc.eps {
					wantUp = append(wantUp, int32(v))
				}
			}
			got := slices.Clone(upper.row(int32(u)))
			if slices.Sort(got); !slices.Equal(got, wantUp) {
				t.Fatalf("case %d (%s) point %d: upper row %v, want %v", ci, tc.name, u, upper.row(int32(u)), wantUp)
			}
		}

		lower, lowerDist := upper.transpose(n, dist)
		for u := range tc.pts {
			var wantLow []int32
			for v := 0; v < u; v++ {
				if tc.pts[v].Dist(tc.pts[u]) <= tc.eps {
					wantLow = append(wantLow, int32(v))
				}
			}
			if got := lower.row(int32(u)); !slices.Equal(got, wantLow) {
				t.Fatalf("case %d (%s) point %d: lower row %v, want %v", ci, tc.name, u, got, wantLow)
			}
			for k := lower.off[u]; k < lower.off[u+1]; k++ {
				if d := tc.pts[lower.val[k]].Dist(tc.pts[u]); lowerDist[k] != d {
					t.Fatalf("case %d (%s): lower entry (%d, %d) carries %v, want %v", ci, tc.name, u, lower.val[k], lowerDist[k], d)
				}
			}
		}
	}
}

// TestWarmCacheSweepDifferential replays the server's parameter sweep
// on one shared distance cache: batched warm-up reads at warmEps for
// minCard 3–5, then batched reads below and above warmEps interleaved
// with serial-scan reads. Every read must match a cacheless serial scan
// — same clusters, same Pairs and ELBPruned — whatever the cache holds:
// finite hits, +Inf entries answering a narrower ε, and +Inf entries
// too narrow to answer a wider one. A batched read below warmEps must
// find every distance in the cache.
func TestWarmCacheSweepDifferential(t *testing.T) {
	g, ds := proptest.BenchScenario(t, 200)
	cfg := DefaultConfig()
	cfg.Flow.MinCard = 0
	res, err := NewPipeline(g).Run(ds, cfg, LevelFlow)
	if err != nil {
		t.Fatal(err)
	}
	const warmEps = 1000
	cache := distcache.New(0)
	var wideMisses int64
	read := func(eps float64, minCard int, serial bool) {
		t.Helper()
		flows, _ := filterFlows(res.Flows, minCard)
		base := RefineConfig{Epsilon: eps, UseELB: true, Bounded: true}
		want, wantStats, err := RefineFlows(g, flows, base)
		if err != nil {
			t.Fatal(err)
		}
		cfg := base
		cfg.Cache = cache
		if !serial {
			cfg.Workers = -1
		}
		got, stats, err := RefineFlows(g, flows, cfg)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("ε %g minCard %d serial %v (%d flows)", eps, minCard, serial, len(flows))
		if !sameClusters(want, got) {
			t.Fatalf("%s: clustering differs from the cacheless serial scan", name)
		}
		if stats.Pairs != wantStats.Pairs || stats.ELBPruned != wantStats.ELBPruned {
			t.Fatalf("%s: Pairs/ELBPruned %d/%d, cacheless serial %d/%d",
				name, stats.Pairs, stats.ELBPruned, wantStats.Pairs, wantStats.ELBPruned)
		}
		if serial {
			return
		}
		if eps < warmEps && (stats.SPQueries != 0 || stats.Expansions != 0 || stats.CacheMisses != 0) {
			t.Fatalf("%s: read below the warm-up ε still computed (queries %d, expansions %d, misses %d)",
				name, stats.SPQueries, stats.Expansions, stats.CacheMisses)
		}
		if eps > warmEps {
			wideMisses += stats.CacheMisses
		}
	}
	for mc := 3; mc <= 5; mc++ {
		read(warmEps, mc, false)
	}
	for _, r := range []struct {
		eps     float64
		minCard int
		serial  bool
	}{
		{600, 3, false}, {800, 4, true}, {980, 5, false}, {1400, 3, false},
		{500, 4, true}, {700, 3, false}, {1700, 5, true}, {400, 5, false},
		{1200, 4, false}, {900, 4, false}, {1800, 3, true}, {1000, 5, false},
	} {
		read(r.eps, r.minCard, r.serial)
	}
	if wideMisses == 0 {
		t.Fatal("no batched read above the warm-up ε missed: the +Inf entries of the warm-up answered a wider ε")
	}
}

// TestBatchedAdjacencyMatchesSerialScan pins the batched builder's
// adjacency to the serial scan's row for row, order included: edges
// appended i-major, j ascending. The clustering alone cannot show the
// order, since DBSCAN's output does not depend on it. Each scenario
// runs without a cache, against a cold cache, and against the same
// cache warm.
func TestBatchedAdjacencyMatchesSerialScan(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 10; trial++ {
		g, flows := scenarioFlows(t, rng)
		eps := 200 + rng.Float64()*2500
		eg, err := NewEpsGraph(g, RefineConfig{Epsilon: eps, UseELB: true, Bounded: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eg.Extend(context.Background(), flows); err != nil {
			t.Fatal(err)
		}
		cache := distcache.New(0)
		for run, c := range []*distcache.Cache{nil, cache, cache} {
			cfg := RefineConfig{Epsilon: eps, UseELB: true, Workers: 2, Cache: c}.withDefaults()
			cfg.Cache.SetScope(cacheScope(g, cfg))
			var stats RefineStats
			adj, err := buildEpsGraphBatched(context.Background(), g, flows, cfg, &stats)
			if err != nil {
				t.Fatal(err)
			}
			for i := range flows {
				if !slices.Equal(adj[i], eg.adjacency[i]) {
					t.Fatalf("trial %d run %d flow %d: batched row %v, serial %v", trial, run, i, adj[i], eg.adjacency[i])
				}
			}
		}
	}
}
