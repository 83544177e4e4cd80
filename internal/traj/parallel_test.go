package traj

import (
	"testing"

	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/shortest"
)

// parallelDataset builds a dataset with gap-repair cases over the
// chain graph.
func parallelDataset(t *testing.T, g *roadnet.Graph, segs []roadnet.SegID) Dataset {
	t.Helper()
	var ds Dataset
	for i := 0; i < 24; i++ {
		tr := Trajectory{ID: ID(i)}
		switch i % 3 {
		case 0: // single segment
			tr.Points = []Location{
				Sample(segs[0], geo.Pt(10, 0), 0),
				Sample(segs[0], geo.Pt(90, 0), 9),
			}
		case 1: // adjacent hop
			tr.Points = []Location{
				Sample(segs[0], geo.Pt(40, 0), 0),
				Sample(segs[1], geo.Pt(150, 0), 10),
			}
		default: // gap repair across the chain
			tr.Points = []Location{
				Sample(segs[0], geo.Pt(50, 0), 0),
				Sample(segs[2], geo.Pt(250, 0), 20),
			}
		}
		ds.Trajectories = append(ds.Trajectories, tr)
	}
	return ds
}

func TestParallelMatchesSerial(t *testing.T) {
	g, _, segs := chain(t)
	ds := parallelDataset(t, g, segs)
	serial, err := NewPartitioner(g, shortest.New(g, nil)).PartitionDataset(ds)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 13, 100} {
		got, err := PartitionDatasetParallel(g, ds, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(serial) {
			t.Fatalf("workers=%d: %d fragments, serial %d", workers, len(got), len(serial))
		}
		for i := range got {
			a, b := got[i], serial[i]
			if a.Traj != b.Traj || a.Seg != b.Seg || a.Index != b.Index || len(a.Points) != len(b.Points) {
				t.Fatalf("workers=%d: fragment %d differs: %v vs %v", workers, i, a, b)
			}
			for j := range a.Points {
				if a.Points[j] != b.Points[j] {
					t.Fatalf("workers=%d: fragment %d point %d differs", workers, i, j)
				}
			}
		}
	}
}

func TestParallelEmpty(t *testing.T) {
	g, _, _ := chain(t)
	got, err := PartitionDatasetParallel(g, Dataset{}, 4)
	if err != nil || got != nil {
		t.Errorf("empty dataset: %v, %v", got, err)
	}
}

func TestParallelPropagatesErrors(t *testing.T) {
	g, _, segs := chain(t)
	ds := Dataset{Trajectories: []Trajectory{
		{ID: 1, Points: []Location{
			Sample(segs[0], geo.Pt(10, 0), 10),
			Sample(segs[0], geo.Pt(20, 0), 5), // unordered
		}},
	}}
	if _, err := PartitionDatasetParallel(g, ds, 4); err == nil {
		t.Error("invalid trajectory accepted")
	}
}

// TestParallelErrorMatchesSerial pins deterministic error selection:
// with two invalid trajectories, the parallel partitioner must report
// exactly the error serial PartitionDataset reports — the first bad
// trajectory in dataset order, with the same text — on every run.
func TestParallelErrorMatchesSerial(t *testing.T) {
	g, _, segs := chain(t)
	ds := parallelDataset(t, g, segs)
	for _, i := range []int{3, 20} {
		ds.Trajectories[i].Points = []Location{
			Sample(segs[0], geo.Pt(10, 0), 10),
			Sample(segs[0], geo.Pt(20, 0), 5), // unordered
		}
	}
	_, serr := NewPartitioner(g, shortest.New(g, nil)).PartitionDataset(ds)
	if serr == nil {
		t.Fatal("serial partition accepted invalid trajectories")
	}
	for _, workers := range []int{2, 4, 8} {
		for run := 0; run < 200; run++ {
			_, err := PartitionDatasetParallel(g, ds, workers)
			if err == nil || err.Error() != serr.Error() {
				t.Fatalf("workers=%d run %d: error %v, want serial %v", workers, run, err, serr)
			}
		}
	}
}

func TestParallelDefaultWorkers(t *testing.T) {
	g, _, segs := chain(t)
	ds := parallelDataset(t, g, segs)
	if _, err := PartitionDatasetParallel(g, ds, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := PartitionDatasetParallel(g, ds, -3); err != nil {
		t.Fatal(err)
	}
}
