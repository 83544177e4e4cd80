package shortest

import (
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
	e := New(g, nil)
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 300; i++ {
		a := roadnet.NodeID(rng.Intn(g.NumNodes()))
		b := roadnet.NodeID(rng.Intn(g.NumNodes()))
		got := ch.Distance(a, b)
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
	e := New(g, nil)
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 200; i++ {
		a := roadnet.NodeID(rng.Intn(g.NumNodes()))
		b := roadnet.NodeID(rng.Intn(g.NumNodes()))
		got := ch.Distance(a, b)
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
	if d := ch.Distance(n0, n0); d != 0 {
		t.Errorf("self distance = %v", d)
	}
	if d := ch.Distance(n0, n1); d != 100 {
		t.Errorf("edge distance = %v", d)
	}
	if d := ch.Distance(n0, n2); !math.IsInf(d, 1) {
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
	if d := ch.Distance(n1, n0); d != 100 {
		t.Errorf("undirected CH distance = %v, want 100", d)
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
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			ch.Distance(p[0], p[1])
		}
	})
	b.Run("dijkstra", func(b *testing.B) {
		e := New(g, nil)
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
