package shortest

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/roadnet"
)

func TestDistancesToMatchesPointToPoint(t *testing.T) {
	g, at := buildGrid(t, 8, 8)
	e := New(g, nil)
	ref := New(g, nil)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		from := at(rng.Intn(8), rng.Intn(8))
		var targets []roadnet.NodeID
		for i := 0; i < 12; i++ {
			targets = append(targets, at(rng.Intn(8), rng.Intn(8)))
		}
		// Include the source and a duplicate target.
		targets = append(targets, from, targets[0])
		maxDist := 100 + rng.Float64()*900
		got := e.DistancesTo(from, Undirected, maxDist, targets)
		if len(got) != len(targets) {
			t.Fatalf("result length %d, want %d", len(got), len(targets))
		}
		for i, to := range targets {
			want := ref.BoundedDistance(from, to, Undirected, maxDist)
			if got[i] != want && !(math.IsInf(got[i], 1) && math.IsInf(want, 1)) {
				t.Errorf("trial %d: dist(%d,%d) = %v, want %v (maxDist %v)",
					trial, from, to, got[i], want, maxDist)
			}
		}
	}
}

func TestDistancesToUnbounded(t *testing.T) {
	g, at := buildGrid(t, 6, 6)
	e := New(g, nil)
	got := e.DistancesTo(at(0, 0), Undirected, math.Inf(1), []roadnet.NodeID{at(5, 5), at(0, 0)})
	if got[0] != 1000 {
		t.Errorf("corner-to-corner = %v, want 1000", got[0])
	}
	if got[1] != 0 {
		t.Errorf("self distance = %v, want 0", got[1])
	}
}

func TestDistancesToCountsOneQuery(t *testing.T) {
	g, at := buildGrid(t, 5, 5)
	stats := &Stats{}
	e := New(g, stats)
	e.DistancesTo(at(0, 0), Undirected, math.Inf(1), []roadnet.NodeID{at(1, 1), at(2, 2), at(3, 3)})
	if q, _ := stats.Snapshot(); q != 1 {
		t.Errorf("queries = %d, want 1 (one expansion serves all targets)", q)
	}
}

func TestDistancesToEmptyTargets(t *testing.T) {
	g, at := buildGrid(t, 3, 3)
	e := New(g, nil)
	if got := e.DistancesTo(at(0, 0), Undirected, 500, nil); len(got) != 0 {
		t.Errorf("empty targets returned %v", got)
	}
}

// TestPoolConcurrentUse exercises a pool of per-worker engines under
// the race detector: engines must not share mutable state, while their
// shared Stats receiver must stay consistent.
func TestPoolConcurrentUse(t *testing.T) {
	g, at := buildGrid(t, 10, 10)
	stats := &Stats{}
	engines := []*Engine{New(g, stats), New(g, stats), New(g, stats), New(g, stats)}
	var wg sync.WaitGroup
	const perWorker = 40
	for w, e := range engines {
		wg.Add(1)
		go func(w int, e *Engine) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				from := at(rng.Intn(10), rng.Intn(10))
				to := at(rng.Intn(10), rng.Intn(10))
				want := float64(100 * (abs(int(from)%10-int(to)%10) + abs(int(from)/10-int(to)/10)))
				if d := e.DistancesTo(from, Undirected, math.Inf(1), []roadnet.NodeID{to})[0]; d != want {
					t.Errorf("worker %d: dist(%d,%d) = %v, want %v", w, from, to, d, want)
				}
			}
		}(w, e)
	}
	wg.Wait()
	if q, _ := stats.Snapshot(); q != int64(len(engines)*perWorker) {
		t.Errorf("shared stats queries = %d, want %d", q, len(engines)*perWorker)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
