package shortest

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/roadnet"
)

func TestALTSelection(t *testing.T) {
	g, _ := buildGrid(t, 10, 10)
	alt, err := NewALT(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	lms := alt.Landmarks()
	if len(lms) != 4 {
		t.Fatalf("landmarks = %d", len(lms))
	}
	seen := map[roadnet.NodeID]bool{}
	for _, l := range lms {
		if seen[l] {
			t.Errorf("landmark %d selected twice", l)
		}
		seen[l] = true
	}
	// Farthest-point selection on a grid should spread landmarks apart.
	for i := 0; i < len(lms); i++ {
		for j := i + 1; j < len(lms); j++ {
			if d := g.Node(lms[i]).Pt.Dist(g.Node(lms[j]).Pt); d < 200 {
				t.Errorf("landmarks %d and %d only %v m apart", lms[i], lms[j], d)
			}
		}
	}
}

func TestALTValidation(t *testing.T) {
	g, _ := buildGrid(t, 3, 3)
	if _, err := NewALT(g, 0); err == nil {
		t.Error("k=0 accepted")
	}
	// k larger than the graph clamps.
	alt, err := NewALT(g, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(alt.Landmarks()) > g.NumNodes() {
		t.Error("more landmarks than nodes")
	}
}

func TestALTBoundAdmissible(t *testing.T) {
	// The ALT bound must never exceed the true undirected distance and
	// must dominate the Euclidean bound.
	g, _ := buildGrid(t, 8, 8)
	alt, err := NewALT(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	e := New(g, nil)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		u := roadnet.NodeID(rng.Intn(g.NumNodes()))
		v := roadnet.NodeID(rng.Intn(g.NumNodes()))
		bound := alt.Bound(u, v)
		truth := e.Dijkstra(u, v, Undirected).Dist
		if bound > truth+1e-9 {
			t.Fatalf("ALT bound %v exceeds true distance %v for (%d,%d)", bound, truth, u, v)
		}
		if de := g.Node(u).Pt.Dist(g.Node(v).Pt); bound < de-1e-9 {
			t.Fatalf("ALT bound %v below Euclidean %v", bound, de)
		}
	}
}

func TestAStarALTCorrect(t *testing.T) {
	g, _ := buildGrid(t, 8, 8)
	alt, err := NewALT(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	e := New(g, nil)
	ref := New(g, nil)
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 100; i++ {
		u := roadnet.NodeID(rng.Intn(g.NumNodes()))
		v := roadnet.NodeID(rng.Intn(g.NumNodes()))
		got := e.AStarALT(u, v, alt)
		want := ref.Dijkstra(u, v, Undirected)
		if math.Abs(got.Dist-want.Dist) > 1e-9 {
			t.Fatalf("ALT dist(%d,%d) = %v, want %v", u, v, got.Dist, want.Dist)
		}
	}
}

func TestALTSettlesFewerNodes(t *testing.T) {
	// On long grid queries ALT should expand (weakly) fewer nodes than
	// plain Dijkstra.
	g, at := buildGrid(t, 20, 20)
	alt, err := NewALT(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	statsALT, statsDij := &Stats{}, &Stats{}
	eALT, eDij := New(g, statsALT), New(g, statsDij)
	pairs := [][2]roadnet.NodeID{
		{at(0, 0), at(19, 19)},
		{at(0, 19), at(19, 0)},
		{at(5, 0), at(19, 15)},
	}
	for _, p := range pairs {
		eALT.AStarALT(p[0], p[1], alt)
		eDij.Dijkstra(p[0], p[1], Undirected)
	}
	_, settledALT := statsALT.Snapshot()
	_, settledDij := statsDij.Snapshot()
	if settledALT > settledDij {
		t.Errorf("ALT settled %d nodes, Dijkstra %d", settledALT, settledDij)
	}
}

func BenchmarkALTvsAStarGrid(b *testing.B) {
	g, at := buildGrid(b, 40, 40)
	alt, err := NewALT(g, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("alt", func(b *testing.B) {
		e := New(g, nil)
		for i := 0; i < b.N; i++ {
			e.AStarALT(at(0, 0), at(39, 39), alt)
		}
	})
	b.Run("astar", func(b *testing.B) {
		e := New(g, nil)
		for i := 0; i < b.N; i++ {
			e.AStar(at(0, 0), at(39, 39), Undirected)
		}
	})
	b.Run("dijkstra", func(b *testing.B) {
		e := New(g, nil)
		for i := 0; i < b.N; i++ {
			e.Dijkstra(at(0, 0), at(39, 39), Undirected)
		}
	})
}
