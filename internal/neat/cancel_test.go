package neat

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/proptest"
)

// renderClusters is a canonical byte rendering of a clustering: the
// pipeline is deterministic, so two runs over the same input are
// byte-identical iff their renderings are equal.
func renderClusters(cs []*TrajectoryCluster) string {
	s := ""
	for _, c := range cs {
		s += "["
		for _, f := range c.Flows {
			s += fmt.Sprintf("%v;", f.Route)
		}
		s += "]"
	}
	return s
}

// waitForGoroutines polls until the goroutine count returns to within
// slack of base, failing the test if it does not settle — the signal a
// cancelled Phase 3 leaked workers.
func waitForGoroutines(t *testing.T, base, slack int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base+slack {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d now vs %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// countdownCtx is a context whose Err turns context.Canceled after it
// has answered live a fixed number of times, so a test can land a
// cancellation at an exact check inside a run.
type countdownCtx struct {
	context.Context
	live atomic.Int64
}

func newCountdownCtx(live int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.live.Store(live)
	return c
}

func (c *countdownCtx) Err() error {
	if c.live.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestRunPlanCtxCancellation cancels a plan mid-Phase-3 (injected
// shortest-path latency guarantees the deadline fires inside the
// ε-graph build) for both builders, and a FromDataset plan inside
// Phase 1, then checks the three robustness invariants: the ctx error
// is reported, no goroutines leak, and a healed re-run is
// byte-identical to a never-cancelled reference run.
func TestRunPlanCtxCancellation(t *testing.T) {
	t.Run("phase1", func(t *testing.T) {
		g, ds := proptest.SimScenario(t, 60)
		cfg := DefaultConfig()
		cfg.Refine.Epsilon = 2000
		plan, err := NewPlan(cfg, LevelOpt, FromDataset, Exec{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		p := NewPipeline(g)
		ref, err := p.RunPlan(plan, Input{Dataset: ds})
		if err != nil {
			t.Fatal(err)
		}
		want := renderResult(ref)

		// One live check before the partition step, then ten claims:
		// the partition workers see the cancellation mid-dataset.
		before := runtime.NumGoroutine()
		_, err = p.RunPlanCtx(newCountdownCtx(1+10), plan, Input{Dataset: ds})
		if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "phase 1") {
			t.Fatalf("phase-1 cancel: err = %v, want context.Canceled from phase 1", err)
		}
		waitForGoroutines(t, before, 0)

		again, err := p.RunPlanCtx(context.Background(), plan, Input{Dataset: ds})
		if err != nil {
			t.Fatal(err)
		}
		if got := renderResult(again); got != want {
			t.Fatalf("post-cancel re-run diverged:\n got %s\nwant %s", got, want)
		}
	})

	rng := rand.New(rand.NewSource(97))
	g, frags := proptest.RandomScenario(t, rng)
	for tries := 0; tries < 40; tries++ {
		bs := FormBaseClusters(frags)
		flows, _, err := FormFlowClusters(g, bs, FlowConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if len(flows) >= 4 {
			break
		}
		g, frags = proptest.RandomScenario(t, rng)
	}

	cases := []struct {
		name   string
		refine RefineConfig
	}{
		{"serial", RefineConfig{Epsilon: 2500}},
		{"batched", RefineConfig{Epsilon: 2500, Workers: 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := fault.New(fault.Config{Seed: 1, Points: map[fault.Point]fault.Spec{
				fault.SPQuery: {LatencyProb: 1, Latency: 5 * time.Millisecond},
			}})
			in.SetEnabled(false)
			cfg := Config{Refine: tc.refine}
			cfg.Refine.Fault = in
			plan, err := NewPlan(cfg, LevelOpt, FromFragments, Exec{})
			if err != nil {
				t.Fatal(err)
			}
			p := NewPipeline(g)
			ref, err := p.RunPlan(plan, Input{Fragments: frags})
			if err != nil {
				t.Fatal(err)
			}
			want := renderClusters(ref.Clusters)

			// Already-cancelled context: fails before any stage runs.
			cancelled, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := p.RunPlanCtx(cancelled, plan, Input{Fragments: frags}); !errors.Is(err, context.Canceled) {
				t.Fatalf("pre-cancelled run: err = %v, want context.Canceled", err)
			}

			// Mid-Phase-3 expiry: the injected 5ms-per-query latency
			// makes the ε-graph build dwarf the 10ms budget.
			in.SetEnabled(true)
			before := runtime.NumGoroutine()
			ctx, cancel2 := context.WithTimeout(context.Background(), 10*time.Millisecond)
			_, err = p.RunPlanCtx(ctx, plan, Input{Fragments: frags})
			cancel2()
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("mid-run cancel: err = %v, want context.DeadlineExceeded", err)
			}
			waitForGoroutines(t, before, 3)

			// Healed and uncancelled: byte-identical to the reference.
			in.SetEnabled(false)
			again, err := p.RunPlanCtx(context.Background(), plan, Input{Fragments: frags})
			if err != nil {
				t.Fatal(err)
			}
			if got := renderClusters(again.Clusters); got != want {
				t.Fatalf("post-cancel re-run diverged:\n got %s\nwant %s", got, want)
			}
		})
	}
}
