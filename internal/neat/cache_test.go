package neat

import (
	"math/rand"
	"testing"

	"repro/internal/distcache"
	"repro/internal/proptest"
	"repro/internal/roadnet"
)

// sameClusters compares two clusterings for exact structural equality:
// same cluster order, same flow order, same flow identities. The flows
// are shared pointers between the runs under comparison, so this is
// the "byte-identical output" check.
func sameClusters(a, b []*TrajectoryCluster) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i].Flows) != len(b[i].Flows) {
			return false
		}
		for j := range a[i].Flows {
			if a[i].Flows[j] != b[i].Flows[j] {
				return false
			}
		}
	}
	return true
}

func scenarioFlows(t *testing.T, rng *rand.Rand) (*roadnet.Graph, []*FlowCluster) {
	t.Helper()
	g, frags := proptest.RandomScenario(t, rng)
	bs := FormBaseClusters(frags)
	flows, _, err := FormFlowClusters(g, bs, FlowConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return g, flows
}

// TestSharedCacheEquivalence pins that attaching a shared distance
// cache changes no output, for every kernel and construction strategy,
// including when one warm cache is reused across configurations with
// different ε-bounds and kernels (the scope/bound-class machinery).
func TestSharedCacheEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 10; trial++ {
		g, flows := scenarioFlows(t, rng)
		eps := 200 + rng.Float64()*2500
		cache := distcache.New(0) // one warm cache across all configs
		configs := []RefineConfig{
			{Epsilon: eps, UseELB: true, Bounded: true},
			{Epsilon: eps, UseELB: true, Bounded: true}, // repeat: warm-cache run
			{Epsilon: eps},
			{Epsilon: eps / 2, UseELB: true, Bounded: true},         // narrower ε reuses bound classes
			{Epsilon: eps, UseELB: true, Bounded: true, Workers: 2}, // batched builder
			{Epsilon: eps, Algo: SPBidirectional, Workers: 2},       // serial scan: Workers needs Dijkstra
			{Epsilon: eps, Algo: SPAStar},
			{Epsilon: eps, Algo: SPCH, UseELB: true},
		}
		for ci, cfg := range configs {
			want, _, err := RefineFlows(g, flows, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Cache = cache
			got, stats, err := RefineFlows(g, flows, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !sameClusters(want, got) {
				t.Fatalf("trial %d config %d: cached clustering differs from uncached (stats %+v)", trial, ci, stats)
			}
		}
	}
}

// TestSharedCacheSecondRunFree pins the steady-state contract: an
// identical second run against a warm cache performs zero shortest-path
// work on both the serial and batched paths.
func TestSharedCacheSecondRunFree(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 5; trial++ {
		g, flows := scenarioFlows(t, rng)
		if len(flows) < 2 {
			continue
		}
		for _, workers := range []int{0, 2} {
			cfg := RefineConfig{Epsilon: 1500, Bounded: true, Workers: workers, Cache: distcache.New(0)}
			first, s1, err := RefineFlows(g, flows, cfg)
			if err != nil {
				t.Fatal(err)
			}
			second, s2, err := RefineFlows(g, flows, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !sameClusters(first, second) {
				t.Fatalf("trial %d workers %d: warm run changed the clustering", trial, workers)
			}
			if s2.SPQueries != 0 || s2.SettledNodes != 0 || s2.CacheMisses != 0 {
				t.Fatalf("trial %d workers %d: warm run still computed (queries %d, settled %d, misses %d)",
					trial, workers, s2.SPQueries, s2.SettledNodes, s2.CacheMisses)
			}
			if workers != 0 && s2.Expansions != 0 {
				t.Fatalf("trial %d: warm batched run ran %d expansions", trial, s2.Expansions)
			}
			if s1.CacheMisses == 0 && s1.Pairs > 0 && s1.ELBPruned < s1.Pairs {
				t.Fatalf("trial %d workers %d: cold run reported no misses", trial, workers)
			}
		}
	}
}

// TestSharedCacheScopeSwitch alternates one cache between two different
// graphs: fingerprint scoping must prevent any cross-graph distance
// from being served.
func TestSharedCacheScopeSwitch(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	gA, flowsA := scenarioFlows(t, rng)
	gB, flowsB := scenarioFlows(t, rng)
	if gA.Fingerprint() == gB.Fingerprint() {
		t.Fatal("scenarios produced identical graphs")
	}
	cache := distcache.New(0)
	base := RefineConfig{Epsilon: 1500, UseELB: true, Bounded: true}
	for round := 0; round < 3; round++ {
		for _, sc := range []struct {
			g     *roadnet.Graph
			flows []*FlowCluster
		}{{gA, flowsA}, {gB, flowsB}} {
			want, _, err := RefineFlows(sc.g, sc.flows, base)
			if err != nil {
				t.Fatal(err)
			}
			cfg := base
			cfg.Cache = cache
			got, _, err := RefineFlows(sc.g, sc.flows, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !sameClusters(want, got) {
				t.Fatalf("round %d: clustering differs after scope switch", round)
			}
		}
	}
}
