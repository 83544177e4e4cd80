package spatial

import (
	"math/rand"
	"testing"

	"repro/internal/geo"
	"repro/internal/roadnet"
)

func buildTestGrid(t testing.TB, w, h int, spacing float64) *roadnet.Graph {
	t.Helper()
	var b roadnet.Builder
	ids := make([]roadnet.NodeID, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			ids[y*w+x] = b.AddJunction(geo.Pt(float64(x)*spacing, float64(y)*spacing))
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
	return g
}

// bruteNearest is the reference implementation for oracle checks.
func bruteNearest(g *roadnet.Graph, p geo.Point) (roadnet.SegID, float64) {
	best := roadnet.NoSeg
	bestD := 1e18
	for _, s := range g.Segments() {
		_, d := g.Locate(s.ID, p)
		if d < bestD || (d == bestD && s.ID < best) {
			best, bestD = s.ID, d
		}
	}
	return best, bestD
}

func TestGridNearestAgainstBruteForce(t *testing.T) {
	g := buildTestGrid(t, 8, 8, 100)
	grid, err := NewGrid(g, 100)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		p := geo.Pt(rng.Float64()*800-50, rng.Float64()*800-50)
		loc, d, ok := grid.Nearest(p)
		if !ok {
			t.Fatal("Nearest returned !ok on non-empty graph")
		}
		_, wantD := bruteNearest(g, p)
		if d != wantD {
			t.Fatalf("Nearest(%v) dist = %v, brute force = %v (seg %d)", p, d, wantD, loc.Seg)
		}
	}
}

func TestGridKNearest(t *testing.T) {
	g := buildTestGrid(t, 5, 5, 100)
	grid, err := NewGrid(g, 100)
	if err != nil {
		t.Fatal(err)
	}
	cands := grid.KNearest(geo.Pt(150, 150), 4)
	if len(cands) != 4 {
		t.Fatalf("KNearest returned %d", len(cands))
	}
	for i := 1; i < len(cands); i++ {
		if cands[i].Dist < cands[i-1].Dist {
			t.Error("KNearest not sorted by distance")
		}
	}
	if got := grid.KNearest(geo.Pt(0, 0), 0); got != nil {
		t.Error("KNearest(0) should return nil")
	}
}

func TestGridWithin(t *testing.T) {
	g := buildTestGrid(t, 5, 5, 100)
	grid, err := NewGrid(g, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Query at a junction: 4 incident segments at distance 0, others
	// at >= 50.
	got := grid.Within(geo.Pt(200, 200), 49)
	if len(got) != 4 {
		t.Fatalf("Within(junction, 49) = %d segments, want 4", len(got))
	}
	for _, c := range got {
		if c.Dist != 0 {
			t.Errorf("incident segment at dist %v", c.Dist)
		}
	}
	// Wider radius picks up the surrounding ring.
	wide := grid.Within(geo.Pt(200, 200), 100)
	if len(wide) <= 4 {
		t.Errorf("Within(junction, 100) = %d segments", len(wide))
	}
	// Far away point: nothing.
	if got := grid.Within(geo.Pt(10000, 10000), 50); len(got) != 0 {
		t.Errorf("far Within = %d", len(got))
	}
}

func TestGridRejectsBadInput(t *testing.T) {
	g := buildTestGrid(t, 2, 2, 100)
	if _, err := NewGrid(g, 0); err == nil {
		t.Error("zero cell size accepted")
	}
	if _, err := NewGrid(g, -5); err == nil {
		t.Error("negative cell size accepted")
	}
}

func BenchmarkGridNearest(b *testing.B) {
	g := buildTestGrid(b, 30, 30, 100)
	grid, err := NewGrid(g, 100)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grid.Nearest(geo.Pt(rng.Float64()*3000, rng.Float64()*3000))
	}
}
