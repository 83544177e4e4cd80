package server

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"testing"

	"repro/internal/neat"
	"repro/internal/shortest"
	"repro/internal/traj"
)

// TestMemoizedReadsMatchFreshRuns is the differential oracle for the
// two-tier snapshot memo: on one session, a seeded sequence of reads
// across all three levels, minCard 0–6 and varied ε, interleaved with
// ingests, must answer byte for byte what a direct FromFragments run of
// the same configuration over the same fragments answers.
func TestMemoizedReadsMatchFreshRuns(t *testing.T) {
	g, ds := testSetup(t)
	levels := []string{"base", "flow", "opt"}
	levelOf := map[string]neat.Level{"base": neat.LevelBase, "flow": neat.LevelFlow, "opt": neat.LevelOpt}
	epsilons := []float64{300, 900, 1500, 2600, 6500}
	// The subtest keeps the name it had when the test also ran a sharded
	// server; the unsharded server is the only one left.
	t.Run("shards=0", func(t *testing.T) {
		srv := httptest.NewServer(New(g, Config{DataNodes: 2}).Handler())
		defer srv.Close()
		c := NewClient(srv.URL, srv.Client())
		ctx := context.Background()
		rng := rand.New(rand.NewSource(41))
		part := traj.NewPartitioner(g, shortest.New(g, nil))
		var frags []traj.TFragment
		next := 0
		ingest := func(n int) {
			hi := min(next+n, len(ds.Trajectories))
			batch := traj.Dataset{Trajectories: ds.Trajectories[next:hi]}
			if _, err := c.Ingest(ctx, batch); err != nil {
				t.Fatal(err)
			}
			for _, tr := range batch.Trajectories {
				fs, err := part.Partition(tr)
				if err != nil {
					t.Fatal(err)
				}
				frags = append(frags, fs...)
			}
			next = hi
		}
		ingest(15)
		for step := 0; step < 40; step++ {
			if next < len(ds.Trajectories) && rng.Intn(6) == 0 {
				ingest(5 + rng.Intn(10))
			}
			lv := levels[rng.Intn(len(levels))]
			q := ClusterQuery{Level: lv, Epsilon: epsilons[rng.Intn(len(epsilons))], MinCard: rng.Intn(7)}
			got, err := c.Clusters(ctx, q)
			if err != nil {
				t.Fatalf("step %d %+v: %v", step, q, err)
			}
			got.ElapsedMs = 0
			cfg := neat.Config{
				Flow:   neat.FlowConfig{Weights: neat.WeightsFlowOnly, MinCard: q.MinCard},
				Refine: neat.RefineConfig{Epsilon: q.Epsilon, UseELB: true, Bounded: true},
			}
			plan, err := neat.NewPlan(cfg, levelOf[lv], neat.FromFragments, neat.Exec{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := neat.NewPipeline(g).RunPlan(plan, neat.Input{Fragments: frags})
			if err != nil {
				t.Fatal(err)
			}
			want := ClusterResponse{Level: res.Level.String(), BaseClusters: len(res.BaseClusters)}
			for _, f := range res.Flows {
				want.Flows = append(want.Flows, flowDTO(g, f))
			}
			for _, cl := range res.Clusters {
				dto := ClusterDTO{Cardinality: cl.Cardinality()}
				for _, f := range cl.Flows {
					dto.Flows = append(dto.Flows, flowDTO(g, f))
				}
				want.Clusters = append(want.Clusters, dto)
			}
			gb, _ := json.Marshal(got)
			wb, _ := json.Marshal(want)
			if string(gb) != string(wb) {
				t.Fatalf("step %d %+v after %d trajectories: memoized read diverges from a fresh run:\n got %s\nwant %s", step, q, next, gb, wb)
			}
		}
		if next <= 15 {
			t.Fatal("the sequence never ingested between reads")
		}
	})
}
