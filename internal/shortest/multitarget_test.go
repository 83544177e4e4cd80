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
		got := e.DistancesTo(make([]float64, len(targets)), from, Undirected, maxDist, targets)
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
	got := e.DistancesTo(make([]float64, 2), at(0, 0), Undirected, math.Inf(1), []roadnet.NodeID{at(5, 5), at(0, 0)})
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
	e.DistancesTo(make([]float64, 3), at(0, 0), Undirected, math.Inf(1), []roadnet.NodeID{at(1, 1), at(2, 2), at(3, 3)})
	if q, _ := stats.Snapshot(); q != 1 {
		t.Errorf("queries = %d, want 1 (one expansion serves all targets)", q)
	}
}

func TestDistancesToEmptyTargets(t *testing.T) {
	g, at := buildGrid(t, 3, 3)
	e := New(g, nil)
	if got := e.DistancesTo(nil, at(0, 0), Undirected, 500, nil); len(got) != 0 {
		t.Errorf("empty targets returned %v", got)
	}
}

// TestDistancesToRepeatedTargets pins the per-node target marks: a
// target listed several times, the source listed among them and a
// target beyond the bound each get the same answer in every slot, and
// an expansion that stops once its distinct targets are settled still
// fills every repeat.
func TestDistancesToRepeatedTargets(t *testing.T) {
	g, at := buildGrid(t, 6, 6)
	e := New(g, nil)
	from := at(1, 1)
	targets := []roadnet.NodeID{at(2, 1), from, at(2, 1), at(5, 5), from, at(2, 1), at(1, 3), at(5, 5)}
	want := []float64{100, 0, 100, math.Inf(1), 0, 100, 200, math.Inf(1)}
	got := e.DistancesTo(make([]float64, len(targets)), from, Undirected, 300, targets)
	for i := range targets {
		if got[i] != want[i] {
			t.Errorf("slot %d (node %d) = %v, want %v", i, targets[i], got[i], want[i])
		}
	}
	only := []roadnet.NodeID{from, from}
	if got := e.DistancesTo(make([]float64, 2), from, Undirected, 300, only); got[0] != 0 || got[1] != 0 {
		t.Errorf("source-only targets = %v, want [0 0]", got)
	}
}

// TestDistancesToReusedAcrossBounds runs one engine and one result
// slice through many expansions with different bounds, sources and
// target lists, each against a fresh engine's point-to-point bounded
// distances: no mark or label of an earlier call may leak into a later
// one, and a wider bound after a narrower one must reach further.
func TestDistancesToReusedAcrossBounds(t *testing.T) {
	g, at := buildGrid(t, 8, 8)
	e := New(g, nil)
	rng := rand.New(rand.NewSource(5))
	buf := make([]float64, 16)
	for trial := 0; trial < 60; trial++ {
		from := at(rng.Intn(8), rng.Intn(8))
		targets := make([]roadnet.NodeID, 1+rng.Intn(16))
		for i := range targets {
			targets[i] = at(rng.Intn(8), rng.Intn(8))
		}
		bound := []float64{0, 100, 250, 700, 1400, math.Inf(1)}[trial%6]
		got := e.DistancesTo(buf, from, Undirected, bound, targets)
		if len(got) != len(targets) {
			t.Fatalf("trial %d: %d results for %d targets", trial, len(got), len(targets))
		}
		ref := New(g, nil)
		for i, to := range targets {
			want := ref.BoundedDistance(from, to, Undirected, bound)
			if from == to {
				want = 0
			}
			if got[i] != want && !(math.IsInf(got[i], 1) && math.IsInf(want, 1)) {
				t.Fatalf("trial %d: dist(%d,%d) bound %v = %v, want %v", trial, from, to, bound, got[i], want)
			}
		}
	}
}

// TestDistancesToAllocatesNothing pins that an expansion writes only
// into the caller's slice.
func TestDistancesToAllocatesNothing(t *testing.T) {
	g, at := buildGrid(t, 8, 8)
	e := New(g, nil)
	targets := []roadnet.NodeID{at(7, 7), at(3, 4), at(3, 4), at(0, 0)}
	buf := make([]float64, len(targets))
	e.DistancesTo(buf, at(0, 0), Undirected, 900, targets) // size the heap
	if n := testing.AllocsPerRun(20, func() {
		e.DistancesTo(buf, at(0, 0), Undirected, 900, targets)
	}); n != 0 {
		t.Errorf("DistancesTo allocates %v times per call, want 0", n)
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
				if d := e.DistancesTo(make([]float64, 1), from, Undirected, math.Inf(1), []roadnet.NodeID{to})[0]; d != want {
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
