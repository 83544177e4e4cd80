package shortest

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/geo"
	"repro/internal/roadnet"
)

// buildGrid builds a w x h unit grid (spacing 100 m) and returns it
// with the node id helper.
func buildGrid(t testing.TB, w, h int) (*roadnet.Graph, func(x, y int) roadnet.NodeID) {
	t.Helper()
	var b roadnet.Builder
	ids := make([]roadnet.NodeID, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			ids[y*w+x] = b.AddJunction(geo.Pt(float64(x)*100, float64(y)*100))
		}
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				if _, err := b.AddSegment(ids[y*w+x], ids[y*w+x+1], roadnet.SegmentOpts{}); err != nil {
					t.Fatal(err)
				}
			}
			if y+1 < h {
				if _, err := b.AddSegment(ids[y*w+x], ids[(y+1)*w+x], roadnet.SegmentOpts{}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, func(x, y int) roadnet.NodeID { return ids[y*w+x] }
}

func TestDijkstraOnGrid(t *testing.T) {
	g, at := buildGrid(t, 5, 5)
	e := New(g, nil)
	res := e.Dijkstra(at(0, 0), at(4, 3), Directed)
	if !res.Reachable() {
		t.Fatal("unreachable")
	}
	if want := 700.0; res.Dist != want {
		t.Errorf("dist = %v, want %v", res.Dist, want)
	}
	if len(res.Nodes) != 8 {
		t.Errorf("path nodes = %d, want 8", len(res.Nodes))
	}
	if len(res.Route) != 7 {
		t.Errorf("route segments = %d, want 7", len(res.Route))
	}
	if res.Nodes[0] != at(0, 0) || res.Nodes[len(res.Nodes)-1] != at(4, 3) {
		t.Error("path endpoints wrong")
	}
	if err := res.Route.Validate(g); err != nil {
		t.Errorf("returned route invalid: %v", err)
	}
}

func TestDijkstraSameNode(t *testing.T) {
	g, at := buildGrid(t, 3, 3)
	e := New(g, nil)
	res := e.Dijkstra(at(1, 1), at(1, 1), Directed)
	if res.Dist != 0 || len(res.Nodes) != 1 || res.Nodes[0] != at(1, 1) || len(res.Route) != 0 {
		t.Errorf("self path = %+v, want distance 0 over the one junction", res)
	}
}

func TestAStarMatchesDijkstra(t *testing.T) {
	g, _ := buildGrid(t, 8, 8)
	e := New(g, nil)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		a := roadnet.NodeID(rng.Intn(g.NumNodes()))
		b := roadnet.NodeID(rng.Intn(g.NumNodes()))
		d1 := e.Dijkstra(a, b, Directed).Dist
		d2 := e.AStar(a, b, Directed).Dist
		if math.Abs(d1-d2) > 1e-9 {
			t.Fatalf("A*(%d,%d) = %v, Dijkstra = %v", a, b, d2, d1)
		}
	}
}

func TestBidirectionalMatchesDijkstra(t *testing.T) {
	g, _ := buildGrid(t, 8, 8)
	e := New(g, nil)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 50; i++ {
		a := roadnet.NodeID(rng.Intn(g.NumNodes()))
		b := roadnet.NodeID(rng.Intn(g.NumNodes()))
		d1 := e.Dijkstra(a, b, Undirected).Dist
		d2 := e.Bidirectional(a, b, Undirected)
		if math.Abs(d1-d2) > 1e-9 {
			t.Fatalf("Bidirectional(%d,%d) = %v, Dijkstra = %v", a, b, d2, d1)
		}
	}
}

// TestBidirectionalAllocatesNothing pins that both frontiers keep their
// settle marks in the engine's stamped arrays.
func TestBidirectionalAllocatesNothing(t *testing.T) {
	g, at := buildGrid(t, 8, 8)
	e := New(g, nil)
	e.Bidirectional(at(0, 0), at(7, 5), Undirected) // size the heaps
	if n := testing.AllocsPerRun(20, func() {
		e.Bidirectional(at(0, 0), at(7, 5), Undirected)
	}); n != 0 {
		t.Errorf("Bidirectional allocates %v times per call, want 0", n)
	}
}

func TestBoundedDistance(t *testing.T) {
	g, at := buildGrid(t, 5, 5)
	e := New(g, nil)
	// True distance is 400.
	if d := e.BoundedDistance(at(0, 0), at(4, 0), Undirected, 500); d != 400 {
		t.Errorf("bounded(500) = %v, want 400", d)
	}
	if d := e.BoundedDistance(at(0, 0), at(4, 0), Undirected, 300); !math.IsInf(d, 1) {
		t.Errorf("bounded(300) = %v, want +Inf", d)
	}
	if d := e.BoundedDistance(at(0, 0), at(4, 0), Undirected, 400); d != 400 {
		t.Errorf("bounded(400) = %v, want 400 (boundary inclusive)", d)
	}
}

func TestOneWayRespected(t *testing.T) {
	var b roadnet.Builder
	n0 := b.AddJunction(geo.Pt(0, 0))
	n1 := b.AddJunction(geo.Pt(100, 0))
	n2 := b.AddJunction(geo.Pt(100, 100))
	if _, err := b.AddSegment(n0, n1, roadnet.SegmentOpts{OneWay: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddSegment(n1, n2, roadnet.SegmentOpts{}); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := New(g, nil)
	if res := e.Dijkstra(n0, n1, Directed); res.Dist != 100 {
		t.Errorf("forward dist = %v", res.Dist)
	}
	if res := e.Dijkstra(n1, n0, Directed); res.Reachable() {
		t.Error("one-way traversed backwards in Directed mode")
	}
	if res := e.Dijkstra(n1, n0, Undirected); res.Dist != 100 {
		t.Errorf("Undirected mode should ignore one-way: %v", res.Dist)
	}
}

func TestTree(t *testing.T) {
	g, at := buildGrid(t, 4, 4)
	e := New(g, nil)
	dists := e.Tree(at(0, 0), Undirected, math.Inf(1))
	if dists[at(3, 3)] != 600 {
		t.Errorf("tree dist to (3,3) = %v", dists[at(3, 3)])
	}
	if dists[at(0, 0)] != 0 {
		t.Errorf("tree dist to self = %v", dists[at(0, 0)])
	}
	// Bounded tree leaves far nodes at +Inf.
	bounded := e.Tree(at(0, 0), Undirected, 200)
	if !math.IsInf(bounded[at(3, 3)], 1) {
		t.Errorf("bounded tree reached (3,3): %v", bounded[at(3, 3)])
	}
	if bounded[at(2, 0)] != 200 {
		t.Errorf("bounded tree dist to (2,0) = %v", bounded[at(2, 0)])
	}
}

func TestLocationRoute(t *testing.T) {
	g, at := buildGrid(t, 3, 1) // chain of 2 segments along x
	e := New(g, nil)
	s0, s1 := g.SegmentsAt(at(0, 0))[0], g.SegmentsAt(at(2, 0))[0]
	a := g.At(s0, 30)
	bLoc := g.At(s1, 40)
	d, _, err := e.LocationRoute(a, bLoc, Directed)
	if err != nil {
		t.Fatal(err)
	}
	// 70 to reach the junction + 40 into the next segment.
	if d != 110 {
		t.Errorf("location route dist = %v, want 110", d)
	}
	// Same-segment case.
	c := g.At(s0, 90)
	d, _, err = e.LocationRoute(a, c, Directed)
	if err != nil {
		t.Fatal(err)
	}
	if d != 60 {
		t.Errorf("same-segment dist = %v, want 60", d)
	}
}

// TestParallelSegmentRoutes takes a graph with two parallel segments
// between a and c: an undirected route must name the segment the
// expansion relaxed (the lower sid, as in Directed mode), not whichever
// of the pair's directed edges was added last.
func TestParallelSegmentRoutes(t *testing.T) {
	var b roadnet.Builder
	a := b.AddJunction(geo.Pt(0, 0))
	c := b.AddJunction(geo.Pt(100, 0))
	d := b.AddJunction(geo.Pt(200, 0))
	w := b.AddJunction(geo.Pt(-100, 0))
	for _, s := range [][2]roadnet.NodeID{{a, c}, {c, a}, {c, d}, {w, a}} {
		if _, err := b.AddSegment(s[0], s[1], roadnet.SegmentOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := New(g, nil)
	for _, mode := range []Mode{Directed, Undirected} {
		if got := e.Dijkstra(a, d, mode).Route; !slices.Equal(got, roadnet.Route{0, 2}) {
			t.Errorf("mode %d: Dijkstra route = %v, want [0 2]", mode, got)
		}
		_, res, err := e.LocationRoute(g.At(3, 50), g.At(2, 50), mode)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.Route, roadnet.Route{0}) || res.Dist != 200 {
			t.Errorf("mode %d: LocationRoute = %v over %v, want 200 over [0]", mode, res.Dist, res.Route)
		}
	}
}

func TestEuclideanLowerBoundProperty(t *testing.T) {
	// dE(a,b) <= dN(a,b) for all junction pairs: the ELB property
	// Phase 3 relies on.
	g, _ := buildGrid(t, 6, 6)
	e := New(g, nil)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		a := roadnet.NodeID(rng.Intn(g.NumNodes()))
		b := roadnet.NodeID(rng.Intn(g.NumNodes()))
		de := g.Node(a).Pt.Dist(g.Node(b).Pt)
		dn := e.Dijkstra(a, b, Undirected).Dist
		if de > dn+1e-9 {
			t.Fatalf("ELB violated: dE(%d,%d)=%v > dN=%v", a, b, de, dn)
		}
	}
}

func TestStatsCounters(t *testing.T) {
	g, at := buildGrid(t, 4, 4)
	stats := &Stats{}
	e := New(g, stats)
	e.Dijkstra(at(0, 0), at(3, 3), Directed)
	e.AStar(at(0, 0), at(1, 1), Directed)
	q, settled := stats.Snapshot()
	if q != 2 {
		t.Errorf("queries = %d, want 2", q)
	}
	if settled == 0 {
		t.Error("settled nodes not counted")
	}
}

// TestStatsPinned pins Fig 7's accounting: the queries and settled
// nodes each entry point adds on a fixed grid, whose equal segment
// lengths make every settle order turn on the heap's tie-breaking.
func TestStatsPinned(t *testing.T) {
	g, at := buildGrid(t, 6, 6)
	alt, err := NewALT(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	stats := &Stats{}
	e := New(g, stats)
	locA := g.At(g.SegmentsAt(at(1, 1))[0], 30)
	locB := g.At(g.SegmentsAt(at(4, 3))[1], 70)
	targets := []roadnet.NodeID{at(3, 1), at(0, 4), at(3, 1), at(5, 5), at(1, 2)}
	buf := make([]float64, len(targets))
	steps := []struct {
		name             string
		run              func()
		queries, settled int64
	}{
		{"dijkstra directed", func() { e.Dijkstra(at(0, 0), at(5, 4), Directed) }, 1, 35},
		{"dijkstra undirected", func() { e.Dijkstra(at(2, 3), at(4, 0), Undirected) }, 1, 34},
		{"dijkstra self", func() { e.Dijkstra(at(3, 3), at(3, 3), Undirected) }, 1, 1},
		{"astar", func() { e.AStar(at(0, 5), at(5, 1), Undirected) }, 1, 24},
		{"alt", func() { e.AStarALT(at(5, 0), at(1, 4), alt) }, 1, 22},
		{"bounded within", func() { e.BoundedDistance(at(1, 1), at(3, 4), Undirected, 600) }, 1, 25},
		{"bounded beyond", func() { e.BoundedDistance(at(1, 1), at(5, 5), Undirected, 350) }, 1, 17},
		{"bounded self", func() { e.BoundedDistance(at(2, 2), at(2, 2), Directed, 100) }, 1, 0},
		{"bidirectional", func() { e.Bidirectional(at(0, 2), at(5, 3), Undirected) }, 1, 18},
		{"bidirectional directed", func() { e.Bidirectional(at(4, 4), at(0, 1), Directed) }, 1, 25},
		{"bidirectional self", func() { e.Bidirectional(at(1, 4), at(1, 4), Undirected) }, 1, 0},
		{"tree bounded", func() { e.Tree(at(2, 2), Undirected, 200) }, 1, 13},
		{"tree full", func() { e.Tree(at(0, 0), Directed, math.Inf(1)) }, 1, 36},
		{"distancesTo", func() { e.DistancesTo(buf, at(1, 1), Undirected, 450, targets) }, 1, 24},
		{"distancesTo unbounded", func() { e.DistancesTo(buf, at(4, 1), Directed, math.Inf(1), targets) }, 1, 35},
		{"distancesTo source only", func() { e.DistancesTo(buf, at(1, 2), Undirected, 450, targets[4:]) }, 1, 0},
		{"locationRoute", func() { e.LocationRoute(locA, locB, Undirected) }, 4, 46},
		{"locationRoute same segment", func() { e.LocationRoute(locA, g.At(locA.Seg, 80), Directed) }, 0, 0},
	}
	for _, s := range steps {
		q0, n0 := stats.Snapshot()
		s.run()
		q1, n1 := stats.Snapshot()
		if q1-q0 != s.queries || n1-n0 != s.settled {
			t.Errorf("%s: added %d queries and %d settled nodes, want %d and %d", s.name, q1-q0, n1-n0, s.queries, s.settled)
		}
	}
}

// TestQueriesDrawInjectedLatency pins that every query, the ALT and
// tree kernels included, takes one injected-latency draw per query it
// counts.
func TestQueriesDrawInjectedLatency(t *testing.T) {
	g, at := buildGrid(t, 4, 4)
	alt, err := NewALT(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	in := fault.New(fault.Config{Seed: 1, Points: map[fault.Point]fault.Spec{
		fault.SPQuery: {LatencyProb: 1, Latency: time.Microsecond},
	}})
	e := New(g, nil)
	e.SetFaults(in)
	calls := map[string]func(){
		"dijkstra":      func() { e.Dijkstra(at(0, 0), at(3, 2), Undirected) },
		"astar":         func() { e.AStar(at(0, 0), at(3, 2), Directed) },
		"alt":           func() { e.AStarALT(at(0, 0), at(3, 2), alt) },
		"bounded":       func() { e.BoundedDistance(at(0, 0), at(3, 2), Undirected, 300) },
		"bidirectional": func() { e.Bidirectional(at(0, 0), at(3, 2), Undirected) },
		"tree":          func() { e.Tree(at(1, 1), Undirected, 200) },
		"distancesTo":   func() { e.DistancesTo(make([]float64, 1), at(0, 0), Undirected, 500, []roadnet.NodeID{at(3, 2)}) },
		"locationRoute": func() { e.LocationRoute(g.At(0, 50), g.At(g.SegmentsAt(at(3, 3))[0], 50), Directed) },
	}
	for name, call := range calls {
		q0, _ := e.Stats().Snapshot()
		s0 := in.Slept(fault.SPQuery)
		call()
		q1, _ := e.Stats().Snapshot()
		if slept := in.Slept(fault.SPQuery) - s0; slept != q1-q0 || slept == 0 {
			t.Errorf("%s: %d latency draws for %d queries", name, slept, q1-q0)
		}
	}
}

func TestEpochReuse(t *testing.T) {
	// Many queries on one engine must not interfere, also across the
	// epoch counter's wrap, which clears every stamp.
	g, _ := buildGrid(t, 5, 5)
	e := New(g, nil)
	e.curEp = math.MaxUint32 - 100
	ref := New(g, nil)
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 200; i++ {
		a := roadnet.NodeID(rng.Intn(g.NumNodes()))
		b := roadnet.NodeID(rng.Intn(g.NumNodes()))
		want := ref.Dijkstra(a, b, Undirected).Dist
		if d := e.AStar(a, b, Undirected).Dist; d != want {
			t.Fatalf("query %d: %v != %v", i, d, want)
		}
		if d := e.Bidirectional(a, b, Undirected); d != want {
			t.Fatalf("bidirectional query %d: %v != %v", i, d, want)
		}
	}
}

func BenchmarkDijkstraGrid(b *testing.B) {
	g, at := buildGrid(b, 50, 50)
	e := New(g, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Dijkstra(at(0, 0), at(49, 49), Directed)
	}
}

func BenchmarkAStarGrid(b *testing.B) {
	g, at := buildGrid(b, 50, 50)
	e := New(g, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.AStar(at(0, 0), at(49, 49), Directed)
	}
}
