package stream

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/neat"
)

// renderClusters canonicalizes a clustering structurally — cluster
// order, flow order within each cluster, and every flow's route — so
// clusterings from two different Clusterer instances (whose flow
// pointers differ) can be compared byte for byte.
func renderClusters(cs []*neat.TrajectoryCluster) string {
	var b strings.Builder
	for ci, c := range cs {
		fmt.Fprintf(&b, "cluster %d:", ci)
		for _, f := range c.Flows {
			b.WriteString(" [")
			for _, seg := range f.Route {
				fmt.Fprintf(&b, "%d,", seg)
			}
			b.WriteString("]")
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestIncrementalMatchesLegacy is the oracle of the stream's one merge:
// after every batch, the snapshot's clusters must render byte-identical
// to a from-scratch neat.RefineFlows over the standing flows without a
// cache — the merge the clusterer ran before it maintained its
// ε-graph. It covers window sizes (1 forces full churn every ingest),
// the clusterer with and without its distance cache, and Phase 3
// worker counts: workers=2 builds the oracle's graph with the batched
// builder, and must not change the clusterer's serial merge.
func TestIncrementalMatchesLegacy(t *testing.T) {
	g, ds := streamSetup(t)
	for _, window := range []int{0, 1, 2, 3} {
		for _, workers := range []int{0, 2} {
			t.Run(fmt.Sprintf("window=%d/workers=%d", window, workers), func(t *testing.T) {
				for _, cacheEntries := range []int{0, -1} {
					t.Run(fmt.Sprintf("cache=%d", cacheEntries), func(t *testing.T) {
						cfg := streamConfig()
						cfg.Window = window
						cfg.Neat.Refine.Workers = workers
						cfg.CacheEntries = cacheEntries
						c, err := New(g, cfg)
						if err != nil {
							t.Fatal(err)
						}
						for i, b := range batches(ds, 5) {
							snap, err := c.Ingest(b)
							if err != nil {
								t.Fatal(err)
							}
							standing := c.StandingFlows()
							if snap.StandingFlows != len(standing) {
								t.Fatalf("batch %d: snapshot counts %d standing flows, clusterer holds %d", i, snap.StandingFlows, len(standing))
							}
							want, _, err := neat.RefineFlows(g, standing, cfg.Neat.Refine)
							if err != nil {
								t.Fatal(err)
							}
							if got, want := renderClusters(snap.Clusters), renderClusters(want); got != want {
								t.Fatalf("batch %d: maintained merge diverged from a from-scratch one\ngot:\n%s\nwant:\n%s", i, got, want)
							}
						}
					})
				}
			})
		}
	}
}

// TestReingestIdenticalBatch is the metamorphic pin from the issue:
// with window 1, re-ingesting the identical batch must reproduce the
// identical snapshot while performing ~zero new shortest-path work —
// every junction-pair distance is already in the persistent cache,
// even though all the flows themselves were just evicted.
func TestReingestIdenticalBatch(t *testing.T) {
	g, ds := streamSetup(t)
	cfg := streamConfig()
	cfg.Window = 1
	c, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	batch := batches(ds, 3)[0]
	first, err := c.Ingest(batch)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Ingest(batch)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderClusters(second.Clusters), renderClusters(first.Clusters); got != want {
		t.Fatalf("re-ingest changed the clustering\nfirst:\n%s\nsecond:\n%s", want, got)
	}
	if second.NewFlows != first.NewFlows || second.StandingFlows != first.StandingFlows {
		t.Fatalf("re-ingest changed flow accounting: %+v vs %+v", second, first)
	}
	if second.EvictedFlows != first.NewFlows {
		t.Fatalf("window 1 should have evicted all %d prior flows, evicted %d", first.NewFlows, second.EvictedFlows)
	}
	if second.RefineStats.SPQueries != 0 || second.RefineStats.CacheMisses != 0 {
		t.Fatalf("re-ingest recomputed distances: %d SP queries, %d cache misses",
			second.RefineStats.SPQueries, second.RefineStats.CacheMisses)
	}
	if first.RefineStats.CacheMisses == 0 && first.RefineStats.Pairs > 0 &&
		first.RefineStats.ELBPruned < first.RefineStats.Pairs {
		t.Fatal("cold ingest reported no cache misses")
	}
}

// TestEvictionInvalidatesRows pins that a flow aging out of the window
// truly leaves the ε-graph: after churning through disjoint batches
// with window 1, each snapshot's clustering contains exactly the
// current batch's flows and matches a from-scratch Phase 3 run over
// them (no stale adjacency row can survive and reattach old flows).
func TestEvictionInvalidatesRows(t *testing.T) {
	g, ds := streamSetup(t)
	cfg := streamConfig()
	cfg.Window = 1
	c, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range batches(ds, 4) {
		snap, err := c.Ingest(b)
		if err != nil {
			t.Fatal(err)
		}
		if snap.StandingFlows != snap.NewFlows {
			t.Fatalf("batch %d: window 1 left %d standing for %d new", i, snap.StandingFlows, snap.NewFlows)
		}
		// Oracle: Phase 3 from scratch over exactly the standing flows.
		want, _, err := neat.RefineFlows(g, c.StandingFlows(), streamConfig().Neat.Refine)
		if err != nil {
			t.Fatal(err)
		}
		if got, wantS := renderClusters(snap.Clusters), renderClusters(want); got != wantS {
			t.Fatalf("batch %d: maintained clustering differs from oracle\ngot:\n%s\nwant:\n%s", i, got, wantS)
		}
	}
}

// TestCacheStatsAccessor checks the cache surface: populated in the
// default mode, zero when disabled.
func TestCacheStatsAccessor(t *testing.T) {
	g, ds := streamSetup(t)
	c, err := New(g, streamConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest(batches(ds, 2)[0]); err != nil {
		t.Fatal(err)
	}
	st := c.CacheStats()
	if st.Capacity == 0 {
		t.Fatal("default mode reported no cache capacity")
	}
	if st.Hits+st.Misses == 0 {
		t.Fatal("ingest consulted the cache zero times")
	}

	cfg := streamConfig()
	cfg.CacheEntries = -1
	off, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := off.Ingest(batches(ds, 2)[0]); err != nil {
		t.Fatal(err)
	}
	if st := off.CacheStats(); st.Capacity != 0 || st.Hits+st.Misses != 0 {
		t.Fatalf("disabled cache reported stats %+v", st)
	}
}
