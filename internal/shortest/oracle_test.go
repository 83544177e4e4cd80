// Differential tests of every shortest-path kernel against the naive
// array-scan Dijkstra in internal/oracle.
package shortest_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/oracle"
	"repro/internal/proptest"
	"repro/internal/roadnet"
	"repro/internal/shortest"
)

// relErr returns the relative error between two distances, treating a
// matching +Inf pair as zero error.
func relErr(got, want float64) float64 {
	if got == want || (math.IsInf(got, 1) && math.IsInf(want, 1)) {
		return 0
	}
	return math.Abs(got-want) / math.Max(1, math.Abs(want))
}

// TestKernelsMatchBruteForce compares Dijkstra, A*, bidirectional,
// bounded, ALT, and CH distances against the oracle on random graphs
// and random node pairs, in both modes where applicable.
func TestKernelsMatchBruteForce(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		rng := proptest.NewRand(seed)
		g, err := proptest.GenGraph(rng)
		if err != nil {
			t.Fatal(err)
		}
		eng := shortest.New(g, nil)
		alt, err := shortest.NewALT(g, 4)
		if err != nil {
			t.Fatal(err)
		}
		ch, err := shortest.NewCH(g)
		if err != nil {
			t.Fatal(err)
		}
		chq := ch.NewQuery()
		for trial := 0; trial < 30; trial++ {
			from := roadnet.NodeID(rng.Intn(g.NumNodes()))
			to := roadnet.NodeID(rng.Intn(g.NumNodes()))
			wantU := oracle.NetworkDistance(g, from, to, true)
			wantD := oracle.NetworkDistance(g, from, to, false)

			if got := eng.Dijkstra(from, to, shortest.Undirected).Dist; got != wantU {
				t.Fatalf("seed %d: undirected dijkstra d(%d,%d) = %v, oracle %v", seed, from, to, got, wantU)
			}
			if got := eng.Dijkstra(from, to, shortest.Directed).Dist; got != wantD {
				t.Fatalf("seed %d: directed dijkstra d(%d,%d) = %v, oracle %v", seed, from, to, got, wantD)
			}
			if got := eng.AStar(from, to, shortest.Undirected).Dist; got != wantU {
				t.Fatalf("seed %d: astar d(%d,%d) = %v, oracle %v", seed, from, to, got, wantU)
			}
			// Bidirectional sums the forward and backward half-paths,
			// so the accumulation order differs from a one-directional
			// scan — allow ulp-level error.
			if got := eng.Bidirectional(from, to, shortest.Undirected); relErr(got, wantU) > 1e-12 {
				t.Fatalf("seed %d: bidirectional d(%d,%d) = %v, oracle %v", seed, from, to, got, wantU)
			}
			if got := eng.AStarALT(from, to, alt).Dist; relErr(got, wantU) > 1e-9 {
				t.Fatalf("seed %d: alt d(%d,%d) = %v, oracle %v", seed, from, to, got, wantU)
			}
			if got := chq.Distance(from, to); relErr(got, wantU) > 1e-6 {
				t.Fatalf("seed %d: ch d(%d,%d) = %v, oracle %v", seed, from, to, got, wantU)
			}

			// BoundedDistance: exact when within the bound, +Inf beyond.
			bound := rng.Float64() * 3000
			got := eng.BoundedDistance(from, to, shortest.Undirected, bound)
			if wantU <= bound {
				if got != wantU {
					t.Fatalf("seed %d: bounded(%v) d(%d,%d) = %v, oracle %v", seed, bound, from, to, got, wantU)
				}
			} else if !math.IsInf(got, 1) {
				t.Fatalf("seed %d: bounded(%v) d(%d,%d) = %v, want +Inf (oracle %v)", seed, bound, from, to, got, wantU)
			}
		}
	}
}

// TestDistancesToMatchesBruteForce checks the batched one-to-many
// kernel (PR 1's ε-graph builder) against per-target oracle distances.
func TestDistancesToMatchesBruteForce(t *testing.T) {
	for seed := int64(20); seed < 28; seed++ {
		rng := proptest.NewRand(seed)
		g, err := proptest.GenGraph(rng)
		if err != nil {
			t.Fatal(err)
		}
		eng := shortest.New(g, nil)
		for trial := 0; trial < 10; trial++ {
			from := roadnet.NodeID(rng.Intn(g.NumNodes()))
			bound := 200 + rng.Float64()*2500
			targets := make([]roadnet.NodeID, 1+rng.Intn(12))
			for i := range targets {
				targets[i] = roadnet.NodeID(rng.Intn(g.NumNodes()))
			}
			got := eng.DistancesTo(make([]float64, len(targets)), from, shortest.Undirected, bound, targets)
			for i, tgt := range targets {
				want := oracle.NetworkDistance(g, from, tgt, true)
				if want > bound {
					want = math.Inf(1)
				}
				if got[i] != want && !(math.IsInf(got[i], 1) && math.IsInf(want, 1)) {
					t.Fatalf("seed %d: DistancesTo(%d->%d, bound %v) = %v, oracle %v",
						seed, from, tgt, bound, got[i], want)
				}
			}
		}
	}
}

// TestRandomWalkPathsMatchBruteForce reconstructs full paths and checks
// the returned route length adds up to the reported distance.
func TestRandomWalkPathsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g, err := proptest.GenGraph(rng)
	if err != nil {
		t.Fatal(err)
	}
	eng := shortest.New(g, nil)
	for trial := 0; trial < 40; trial++ {
		from := roadnet.NodeID(rng.Intn(g.NumNodes()))
		to := roadnet.NodeID(rng.Intn(g.NumNodes()))
		res := eng.Dijkstra(from, to, shortest.Undirected)
		if !res.Reachable() {
			continue
		}
		sum := 0.0
		for _, s := range res.Route {
			sum += g.Segment(s).Length
		}
		if math.Abs(sum-res.Dist) > 1e-9*math.Max(1, res.Dist) {
			t.Fatalf("route sums to %v, dist %v", sum, res.Dist)
		}
		if len(res.Nodes) != len(res.Route)+1 {
			t.Fatalf("path shape: %d nodes, %d segments", len(res.Nodes), len(res.Route))
		}
	}
}
