package session

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/guard"
	"repro/internal/neat"
	"repro/internal/persist"
	"repro/internal/traj"
)

// flowsCfg is the flow configuration the tests read with, the server's.
var flowsCfg = neat.Config{Flow: neat.FlowConfig{Weights: neat.WeightsFlowOnly}}

// renderFlowSet renders what a read serves from a flow set: the
// base-cluster count and each flow's route, density and participants.
func renderFlowSet(fs *neat.FlowSet) string {
	var b strings.Builder
	fmt.Fprintf(&b, "base=%d\n", fs.BaseClusters)
	for _, f := range fs.Flows {
		fmt.Fprintf(&b, "route=%v d=%d ptr=%v\n", f.Route, f.Density(), f.ParticipatingTrajectories())
	}
	return b.String()
}

// freshFlows is the reference for a snapshot's flow set: a FromFragments
// flow plan over the snapshot's own fragments on a fresh pipeline. It
// reports a failure with t.Error, so readers off the test goroutine may
// call it.
func freshFlows(t testing.TB, s *Session, sn *Snapshot) string {
	t.Helper()
	res, err := neat.NewPipeline(s.Graph()).RunFragments(sn.Fragments, flowsCfg, neat.LevelFlow)
	if err != nil {
		t.Error(err)
		return ""
	}
	fs := &neat.FlowSet{BaseClusters: len(res.BaseClusters)}
	for _, f := range res.Flows {
		fs.Flows = append(fs.Flows, f.Detached())
	}
	return renderFlowSet(fs)
}

// readFlows reads sn's flow set through the session and renders it.
func readFlows(t testing.TB, s *Session, sn *Snapshot) string {
	t.Helper()
	fs, err := s.Flows(context.Background(), sn, flowsCfg)
	if err != nil {
		t.Fatalf("flows of version %d: %v", sn.Version, err)
	}
	return renderFlowSet(fs)
}

// TestFlowsMatchFreshRunsUnderFaults runs seeded sequences of ingests of
// 1–8 trips, injected WAL append failures and ingest panics, and reads
// of the newest snapshot and of held older ones. Every read folds the
// session's kept base-cluster set forward, or starts afresh for a
// snapshot older than it, and must equal a FromFragments flow plan over
// the read snapshot's own fragments.
func TestFlowsMatchFreshRunsUnderFaults(t *testing.T) {
	g := testGraph(t, 41)
	for seed := int64(1); seed <= 4; seed++ {
		inj := fault.New(fault.Config{Seed: seed, Points: map[fault.Point]fault.Spec{
			fault.WALAppend:   {ErrProb: 0.25},
			fault.IngestPanic: {ErrProb: 0.15},
		}})
		s, err := New("diff", g, Config{Fault: inj, Persist: &persist.Options{Dir: t.TempDir(), Fsync: persist.FsyncOff}})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		ds := testDataset(t, g, 120, 40+seed)
		var held []*Snapshot
		var failed, reads int
		for next := 0; next < len(ds.Trajectories); {
			switch op := rng.Intn(4); {
			case op < 2:
				n := min(1+rng.Intn(8), len(ds.Trajectories)-next)
				if err := ingestErr(s, traj.Dataset{Trajectories: ds.Trajectories[next : next+n]}); err != nil {
					var pe *guard.PanicError
					if !errors.Is(err, ErrNotDurable) && !errors.As(err, &pe) {
						t.Fatalf("seed %d: ingest: %v", seed, err)
					}
					failed++
					continue // the batch was rolled back; retry it
				}
				next += n
				held = append(held, s.Current())
			default:
				if len(held) == 0 {
					continue
				}
				sn := held[len(held)-1]
				if op == 3 {
					sn = held[rng.Intn(len(held))]
				}
				if got, want := readFlows(t, s, sn), freshFlows(t, s, sn); got != want {
					t.Fatalf("seed %d: version %d read\n%s\nwant\n%s", seed, sn.Version, got, want)
				}
				reads++
			}
		}
		if failed == 0 || reads == 0 {
			t.Fatalf("seed %d: %d failed ingests and %d reads; the sequence must have both", seed, failed, reads)
		}
		s.Close()
	}
}

// TestHealDiscardsKeptSet corrupts the kept base-cluster set, heals
// the session through its breaker, and requires the next read to equal
// a never-faulted control's: a heal rebuilds the fragment arrays, so it
// must discard the kept set too.
func TestHealDiscardsKeptSet(t *testing.T) {
	g := testGraph(t, 43)
	ctx := context.Background()
	clk := guard.NewManualClock(time.Unix(1_700_000_000, 0))
	inj := fault.New(fault.Config{Seed: 5, Points: map[fault.Point]fault.Spec{
		fault.Ingest: {ErrProb: 1},
	}})
	inj.SetEnabled(false)
	s, err := New("victim", g, Config{
		Fault:   inj,
		Persist: &persist.Options{Dir: t.TempDir(), Fsync: persist.FsyncOff},
		Guard: guard.Config{
			Breaker: guard.BreakerConfig{TripAfter: 1, Cooldown: 10 * time.Second},
			Now:     clk.Now,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctrl, err := New("control", g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	batch1 := testDataset(t, g, 6, 44)
	batch2 := testDataset(t, g, 5, 45)
	other := testDataset(t, g, 7, 46)
	for i := range batch2.Trajectories {
		batch2.Trajectories[i].ID += 1000
	}
	ingestDataset(t, s, batch1)
	readFlows(t, s, s.Current())

	// Replace the kept set with one folded from other fragments, keeping
	// its epoch and fragment count, so only the heal can discard it.
	p := neat.NewPipeline(g)
	otherFrags, err := p.Partition(other)
	if err != nil {
		t.Fatal(err)
	}
	_, bogus, err := p.BuildFlowSet(ctx, nil, otherFrags, flowsCfg)
	if err != nil {
		t.Fatal(err)
	}
	s.fold <- struct{}{}
	s.kept = bogus
	<-s.fold

	inj.SetEnabled(true)
	if err := ingestErr(s, batch2); !fault.IsInjected(err) {
		t.Fatalf("faulted ingest returned %v, want injected error", err)
	}
	if !s.Quarantined() {
		t.Fatal("an injected failure must quarantine (TripAfter=1)")
	}
	inj.SetEnabled(false)
	clk.Advance(10 * time.Second)
	if err := ingestErr(s, batch2); err != nil {
		t.Fatalf("probe ingest failed: %v", err)
	}
	if st := s.Guard().Snapshot(); st.Heals != 1 {
		t.Fatalf("heals = %d, want 1", st.Heals)
	}

	ingestDataset(t, ctrl, batch1)
	ingestDataset(t, ctrl, batch2)
	want := readFlows(t, ctrl, ctrl.Current())
	batch2Frags, err := p.Partition(batch2)
	if err != nil {
		t.Fatal(err)
	}
	stale, _, err := p.BuildFlowSet(ctx, bogus, batch2Frags, flowsCfg)
	if err != nil {
		t.Fatal(err)
	}
	if renderFlowSet(stale) == want {
		t.Fatal("the corrupted kept set folds forward to the control's read; the test cannot see a kept set survive the heal")
	}
	if got := readFlows(t, s, s.Current()); got != want {
		t.Fatalf("healed read\n%s\nwant the never-faulted control's\n%s", got, want)
	}
}

// TestFlowsOfHeldSnapshotsDuringIngest reads held snapshots, old and
// new, from several goroutines while ingests commit, so that reads fold
// the kept set forward and back concurrently with publication (run
// under -race -count=10 in CI). Every read must equal a fresh flow plan
// over its snapshot's fragments.
func TestFlowsOfHeldSnapshotsDuringIngest(t *testing.T) {
	g := testGraph(t, 47)
	s, err := New("busy", g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ds := testDataset(t, g, 48, 48)

	var mu sync.Mutex
	held := []*Snapshot{s.Current()}
	done, reads := make(chan struct{}), make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				mu.Lock()
				sn := held[rng.Intn(len(held))]
				mu.Unlock()
				if len(sn.Fragments) > 0 {
					// No return on a failure: the ingest loop waits
					// for reads.
					if fs, err := s.Flows(context.Background(), sn, flowsCfg); err != nil {
						t.Errorf("reader %d: flows of version %d: %v", r, sn.Version, err)
					} else if got, want := renderFlowSet(fs), freshFlows(t, s, sn); got != want {
						t.Errorf("reader %d: version %d read\n%s\nwant\n%s", r, sn.Version, got, want)
					}
				}
				select {
				case reads <- struct{}{}:
				case <-done:
					return
				}
			}
		}(r)
	}
	for lo := 0; lo < len(ds.Trajectories); lo += 3 {
		ingestDataset(t, s, traj.Dataset{Trajectories: ds.Trajectories[lo:min(lo+3, len(ds.Trajectories))]})
		mu.Lock()
		held = append(held, s.Current())
		mu.Unlock()
		<-reads // let a read finish between ingests while the others run on
	}
	close(done)
	readers.Wait()
}

// readKey is one (ε, minCard) key of a /v1/clusters read.
type readKey struct {
	eps     float64
	minCard int
}

// renderRead renders what a read's body carries: the base-cluster
// count, each flow's route, cardinality and density, and each cluster's
// flow routes and cardinality.
func renderRead(baseClusters int, res *neat.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "base=%d\n", baseClusters)
	flow := func(f *neat.FlowCluster) {
		fmt.Fprintf(&b, " route=%v c=%d d=%d", f.Route, f.Cardinality(), f.Density())
	}
	for _, f := range res.Flows {
		flow(f)
		b.WriteByte('\n')
	}
	for _, c := range res.Clusters {
		b.WriteString("cluster")
		for _, f := range c.Flows {
			flow(f)
		}
		fmt.Fprintf(&b, " c=%d\n", c.Cardinality())
	}
	return b.String()
}

// TestConcurrentReadsOfOneSession has several goroutines read different
// (ε, minCard) keys of one session as the server does — Flows, then
// Refine with the batched builder on the session's distance cache —
// while ingests publish (run under -race -count=10 in CI). Phase 3
// reads take no session lock, so they overlap each other and the
// folds. Every read's body must equal the body of a fresh FromFragments
// run over its snapshot's fragments.
func TestConcurrentReadsOfOneSession(t *testing.T) {
	g := testGraph(t, 55)
	s, err := New("readers", g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ds := testDataset(t, g, 60, 55)
	cfgOf := func(k readKey, batched bool) neat.Config {
		cfg := neat.Config{
			Flow:   neat.FlowConfig{Weights: neat.WeightsFlowOnly, MinCard: k.minCard},
			Refine: neat.RefineConfig{Epsilon: k.eps, UseELB: true, Bounded: true},
		}
		if batched {
			cfg.Refine.Workers, cfg.Refine.Cache = -1, s.Cache()
		}
		return cfg
	}
	fresh := func(k readKey, sn *Snapshot) string {
		plan, err := neat.NewPlan(cfgOf(k, false), neat.LevelOpt, neat.FromFragments, neat.Exec{})
		if err != nil {
			t.Error(err)
			return ""
		}
		res, err := neat.NewPipeline(g).RunPlan(plan, neat.Input{Fragments: sn.Fragments})
		if err != nil {
			t.Error(err)
			return ""
		}
		return renderRead(len(res.BaseClusters), res)
	}

	ingestDataset(t, s, traj.Dataset{Trajectories: ds.Trajectories[:5]})
	keys := []readKey{{1500, 2}, {900, 3}, {2500, 1}, {1200, 2}}
	done, reads := make(chan struct{}), make(chan struct{})
	var readers sync.WaitGroup
	for _, k := range keys {
		readers.Add(1)
		go func(k readKey) {
			defer readers.Done()
			ctx, cfg := context.Background(), cfgOf(k, true)
			for {
				sn := s.Current()
				// No return on a failure: the ingest loop waits for reads.
				fs, err := s.Flows(ctx, sn, cfg)
				var res *neat.Result
				if err == nil {
					res, err = s.Refine(ctx, fs, cfg, neat.LevelOpt)
				}
				if err != nil {
					t.Errorf("key %v: read of version %d: %v", k, sn.Version, err)
				} else if got, want := renderRead(fs.BaseClusters, res), fresh(k, sn); got != want {
					t.Errorf("key %v: version %d read\n%s\nwant\n%s", k, sn.Version, got, want)
				}
				select {
				case reads <- struct{}{}:
				case <-done:
					return
				}
			}
		}(k)
	}
	for lo := 5; lo < len(ds.Trajectories); lo += 5 {
		ingestDataset(t, s, traj.Dataset{Trajectories: ds.Trajectories[lo:min(lo+5, len(ds.Trajectories))]})
		// Let two reads finish between ingests while the others run on.
		<-reads
		<-reads
	}
	close(done)
	readers.Wait()
}
