package shortest

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
	"repro/internal/mapgen"
	"repro/internal/roadnet"
)

func TestCHGridExactness(t *testing.T) {
	g, _ := buildGrid(t, 9, 9)
	ch, err := NewCH(g)
	if err != nil {
		t.Fatal(err)
	}
	q := ch.NewQuery()
	e := New(g, nil)
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 300; i++ {
		a := roadnet.NodeID(rng.Intn(g.NumNodes()))
		b := roadnet.NodeID(rng.Intn(g.NumNodes()))
		got := q.Distance(a, b)
		want := e.Dijkstra(a, b, Undirected).Dist
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("CH(%d,%d) = %v, Dijkstra = %v", a, b, got, want)
		}
	}
}

func TestCHSyntheticMapExactness(t *testing.T) {
	g, err := mapgen.Generate(mapgen.Config{
		Name: "ch", TargetJunctions: 400, TargetSegments: 560,
		AvgSegLenM: 150, MaxDegree: 6, DiagonalFrac: 0.15, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := NewCH(g)
	if err != nil {
		t.Fatal(err)
	}
	q := ch.NewQuery()
	e := New(g, nil)
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 200; i++ {
		a := roadnet.NodeID(rng.Intn(g.NumNodes()))
		b := roadnet.NodeID(rng.Intn(g.NumNodes()))
		got := q.Distance(a, b)
		want := e.Dijkstra(a, b, Undirected).Dist
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("CH(%d,%d) = %v, Dijkstra = %v", a, b, got, want)
		}
	}
}

func TestCHSelfAndDisconnected(t *testing.T) {
	// Two disjoint components joined by nothing.
	var b roadnet.Builder
	n0 := b.AddJunction(geo.Pt(0, 0))
	n1 := b.AddJunction(geo.Pt(100, 0))
	n2 := b.AddJunction(geo.Pt(5000, 0))
	n3 := b.AddJunction(geo.Pt(5100, 0))
	if _, err := b.AddSegment(n0, n1, roadnet.SegmentOpts{}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddSegment(n2, n3, roadnet.SegmentOpts{}); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ch, err := NewCH(g)
	if err != nil {
		t.Fatal(err)
	}
	q := ch.NewQuery()
	if d := q.Distance(n0, n0); d != 0 {
		t.Errorf("self distance = %v", d)
	}
	if d := q.Distance(n0, n1); d != 100 {
		t.Errorf("edge distance = %v", d)
	}
	if d := q.Distance(n0, n2); !math.IsInf(d, 1) {
		t.Errorf("disconnected distance = %v, want +Inf", d)
	}
}

func TestCHOneWayIgnored(t *testing.T) {
	// CH works on the undirected view: one-way restrictions must not
	// affect it (matching Phase 3's distance definition).
	var b roadnet.Builder
	n0 := b.AddJunction(geo.Pt(0, 0))
	n1 := b.AddJunction(geo.Pt(100, 0))
	if _, err := b.AddSegment(n0, n1, roadnet.SegmentOpts{OneWay: true}); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ch, err := NewCH(g)
	if err != nil {
		t.Fatal(err)
	}
	q := ch.NewQuery()
	if d := q.Distance(n1, n0); d != 100 {
		t.Errorf("undirected CH distance = %v, want 100", d)
	}
}

// refHeap is container/heap's view of heapItems, for the references
// below.
type refHeap []heapItem

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].prio < h[j].prio }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(heapItem)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// refCHDistance is the CH query as maps and container/heap: the
// labels, settled sets and queues a CHQuery keeps in reused arrays.
func refCHDistance(ch *CH, from, to roadnet.NodeID) float64 {
	if from == to {
		return 0
	}
	distF := map[roadnet.NodeID]float64{from: 0}
	distB := map[roadnet.NodeID]float64{to: 0}
	best := math.Inf(1)
	search := func(dist, other map[roadnet.NodeID]float64, src roadnet.NodeID) {
		h := &refHeap{}
		heap.Push(h, heapItem{node: src, prio: 0})
		done := make(map[roadnet.NodeID]bool)
		for h.Len() > 0 {
			it := heap.Pop(h).(heapItem)
			if done[it.node] {
				continue
			}
			done[it.node] = true
			d := dist[it.node]
			if d >= best {
				break
			}
			if od, ok := other[it.node]; ok && d+od < best {
				best = d + od
			}
			for _, e := range ch.up[it.node] {
				nd := d + e.w
				if cur, ok := dist[e.to]; !ok || nd < cur {
					dist[e.to] = nd
					heap.Push(h, heapItem{node: e.to, prio: nd})
				}
			}
		}
	}
	search(distF, distB, from)
	search(distB, distF, to)
	return best
}

// TestCHQueryMatchesMapQuery pins a reused CHQuery to the map-based
// search bit for bit, on a grid (many equal-length ties) and two
// synthetic maps, across an epoch wrap-around, and checks that a warm
// query allocates nothing.
func TestCHQueryMatchesMapQuery(t *testing.T) {
	grid, _ := buildGrid(t, 9, 9)
	graphs := []*roadnet.Graph{grid}
	for _, seed := range []int64{9, 4} {
		g, err := mapgen.Generate(mapgen.Config{
			Name: "chq", TargetJunctions: 400, TargetSegments: 560,
			AvgSegLenM: 150, MaxDegree: 6, DiagonalFrac: 0.15, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	for gi, g := range graphs {
		ch, err := NewCH(g)
		if err != nil {
			t.Fatal(err)
		}
		q := ch.NewQuery()
		rng := rand.New(rand.NewSource(int64(gi)))
		for i := 0; i < 400; i++ {
			if i == 200 {
				q.curEp = math.MaxUint32 - 3
			}
			a := roadnet.NodeID(rng.Intn(g.NumNodes()))
			b := roadnet.NodeID(rng.Intn(g.NumNodes()))
			if got, want := q.Distance(a, b), refCHDistance(ch, a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("graph %d query %d: CH(%d,%d) = %v, map search %v", gi, i, a, b, got, want)
			}
		}
		a, b := roadnet.NodeID(0), roadnet.NodeID(g.NumNodes()-1)
		if n := testing.AllocsPerRun(50, func() { q.Distance(a, b) }); n != 0 {
			t.Fatalf("graph %d: a warm CH query allocates %v times", gi, n)
		}
	}
}

// TestNodeHeapMatchesContainerHeap pins the engines' heap to
// container/heap's sift order: seeded interleavings of pushes and pops
// over few distinct priorities, so ties abound, pop the same items in
// the same order.
func TestNodeHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		var h nodeHeap
		ref := &refHeap{}
		for op := 0; op < 300; op++ {
			if ref.Len() == 0 || rng.Intn(3) > 0 {
				it := heapItem{node: roadnet.NodeID(op), prio: float64(rng.Intn(8))}
				h.push(it)
				heap.Push(ref, it)
				continue
			}
			if got, want := h.pop(), heap.Pop(ref).(heapItem); got != want {
				t.Fatalf("trial %d op %d: popped %+v, container/heap %+v", trial, op, got, want)
			}
		}
	}
}

func BenchmarkCHQuery(b *testing.B) {
	g, err := mapgen.Generate(mapgen.Config{
		Name: "chb", TargetJunctions: 2000, TargetSegments: 2800,
		AvgSegLenM: 150, MaxDegree: 6, DiagonalFrac: 0.15, Seed: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	ch, err := NewCH(g)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]roadnet.NodeID, 256)
	for i := range pairs {
		pairs[i] = [2]roadnet.NodeID{
			roadnet.NodeID(rng.Intn(g.NumNodes())),
			roadnet.NodeID(rng.Intn(g.NumNodes())),
		}
	}
	b.Run("ch", func(b *testing.B) {
		q := ch.NewQuery()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			q.Distance(p[0], p[1])
		}
	})
	b.Run("dijkstra", func(b *testing.B) {
		e := New(g, nil)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			e.Dijkstra(p[0], p[1], Undirected)
		}
	})
}

func BenchmarkCHPreprocess(b *testing.B) {
	g, err := mapgen.Generate(mapgen.Config{
		Name: "chp", TargetJunctions: 1000, TargetSegments: 1400,
		AvgSegLenM: 150, MaxDegree: 6, Seed: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewCH(g); err != nil {
			b.Fatal(err)
		}
	}
}
