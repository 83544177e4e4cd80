package experiments

import (
	"strings"
	"testing"

	"repro/internal/neat"
)

// tinyEnv builds the smallest environment that still exercises every
// runner; the full-scale runs live in cmd/neatbench.
func tinyEnv(t testing.TB) *Env {
	t.Helper()
	e, err := NewEnv(0.02)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEnvValidation(t *testing.T) {
	for _, s := range []float64{0, -1, 1.5} {
		if _, err := NewEnv(s); err == nil {
			t.Errorf("scale %g accepted", s)
		}
	}
	e, err := NewEnv(1)
	if err != nil {
		t.Fatal(err)
	}
	if e.Scale() != 1 || e.LinearScale() != 1 {
		t.Error("scale accessors wrong")
	}
}

func TestEnvScaling(t *testing.T) {
	e := tinyEnv(t)
	if got := e.Objects(500); got != 10 {
		t.Errorf("Objects(500) = %d, want 10", got)
	}
	if got := e.Objects(100); got != 5 {
		t.Errorf("Objects(100) = %d, want 5 (floor)", got)
	}
	eps := e.Epsilon(6500)
	if eps <= 0 || eps >= 6500 {
		t.Errorf("Epsilon(6500) = %v", eps)
	}
}

func TestEnvCaching(t *testing.T) {
	e := tinyEnv(t)
	g1, err := e.Graph("ATL")
	if err != nil {
		t.Fatal(err)
	}
	g2, err := e.Graph("ATL")
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Error("Graph not cached")
	}
	d1, err := e.Dataset("ATL", 500)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := e.Dataset("ATL", 500)
	if err != nil {
		t.Fatal(err)
	}
	if &d1.Trajectories[0] != &d2.Trajectories[0] {
		t.Error("Dataset not cached")
	}
	if _, err := e.Graph("XX"); err == nil {
		t.Error("unknown region accepted")
	}
}

func TestTableRunnersSmoke(t *testing.T) {
	e := tinyEnv(t)
	for _, id := range []string{"table1", "table2", "table3"} {
		tab, err := Run(e, id, "")
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tab.Rows) == 0 {
			t.Errorf("%s produced no rows", id)
		}
		if !strings.Contains(tab.String(), tab.Title) {
			t.Errorf("%s render missing title", id)
		}
	}
}

func TestFigureRunnersSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("figure runners are slow in -short mode")
	}
	e := tinyEnv(t)
	dir := t.TempDir()
	for _, id := range []string{"fig3", "fig4", "fig5", "fig6", "fig7", "variant", "accuracy", "baselines", "workloads", "mapmatch", "traclus-index"} {
		tab, err := Run(e, id, dir)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tab.Rows) == 0 {
			t.Errorf("%s produced no rows", id)
		}
	}
}

func TestScalingRunnerSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling sweep is slow in -short mode")
	}
	e := tinyEnv(t)
	tab, err := Run(e, "scaling", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Errorf("scaling rows = %d, want 4", len(tab.Rows))
	}
}

func TestAblationRunnersSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are slow in -short mode")
	}
	e := tinyEnv(t)
	for _, id := range []string{"ablation-weights", "ablation-beta", "ablation-sp", "phase3-workers"} {
		tab, err := Run(e, id, "")
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tab.Rows) == 0 {
			t.Errorf("%s produced no rows", id)
		}
	}
}

// TestSameClustering pins the phase3-workers identity check: it must
// reject a clustering that matches the serial one only in cluster count.
func TestSameClustering(t *testing.T) {
	f := []*neat.FlowCluster{{}, {}, {}}
	serial := []*neat.TrajectoryCluster{{Flows: f[:2]}, {Flows: f[2:]}}
	if err := sameClustering(serial, []*neat.TrajectoryCluster{{Flows: f[:2]}, {Flows: f[2:]}}); err != nil {
		t.Errorf("identical clusterings rejected: %v", err)
	}
	for name, batched := range map[string][]*neat.TrajectoryCluster{
		"count":      {{Flows: f}},
		"size":       {{Flows: f[:1]}, {Flows: f[1:]}},
		"flow order": {{Flows: []*neat.FlowCluster{f[1], f[0]}}, {Flows: f[2:]}},
		"flow":       {{Flows: f[:2]}, {Flows: []*neat.FlowCluster{{}}}},
	} {
		if err := sameClustering(serial, batched); err == nil {
			t.Errorf("%s difference accepted", name)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	e := tinyEnv(t)
	if _, err := Run(e, "fig99", ""); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestOrderCoversRegistry(t *testing.T) {
	order := Order()
	reg := Registry()
	if len(order) != len(reg) {
		t.Fatalf("Order has %d ids, registry %d", len(order), len(reg))
	}
	seen := map[string]bool{}
	for _, id := range order {
		if _, ok := reg[id]; !ok {
			t.Errorf("ordered id %q not in registry", id)
		}
		if seen[id] {
			t.Errorf("id %q duplicated", id)
		}
		seen[id] = true
	}
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{
		ID:     "x",
		Title:  "demo",
		Header: []string{"A", "LongHeader"},
		Notes:  []string{"a note"},
	}
	tab.AddRow("v", 3.14159)
	tab.AddRow(12345, 0.0)
	s := tab.String()
	for _, want := range []string{"demo", "LongHeader", "3.142", "12345", "note: a note"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
}

// TestStreamIngestSmoke pins the stream-ingest report's shape: a cached
// row for the clusterer and a from-scratch row for the merge it saves,
// both over the same clusterings.
func TestStreamIngestSmoke(t *testing.T) {
	rep, err := StreamIngest(tinyEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Modes) != 2 || rep.Modes[0].Config != "cached" || rep.Modes[1].Config != "from_scratch" {
		t.Fatalf("modes %+v, want cached then from_scratch", rep.Modes)
	}
	cached, scratch := rep.Modes[0], rep.Modes[1]
	if cached.SteadyIngests != scratch.SteadyIngests || cached.Clusters != scratch.Clusters {
		t.Errorf("rows disagree: %+v vs %+v", cached, scratch)
	}
	if scratch.SPQueries <= cached.SPQueries {
		t.Errorf("from-scratch merge issued %d SP queries, no more than the cached clusterer's %d", scratch.SPQueries, cached.SPQueries)
	}
	if rep.Speedup <= 0 {
		t.Errorf("speedup %v", rep.Speedup)
	}
}
