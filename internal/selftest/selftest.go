// Package selftest drives the differential correctness harness: it
// generates seeded random instances with internal/proptest, runs the
// optimized pipeline (internal/neat), the read a server serves (the
// instance ingested in batches through internal/session) and the naive
// reference (internal/oracle) on each, and demands byte-identical
// canonical summaries — cluster membership, representative routes,
// participant sets, and filter counts. On a mismatch it bisects the
// dataset to a minimal counterexample and reports a one-line
// reproduction command.
//
// The package exists separately from internal/proptest so that the
// in-package tests of internal/neat can import proptest without an
// import cycle, while this package may import neat, oracle, and
// proptest together. It serves both `go test ./internal/selftest` and
// `neatcli selftest`.
package selftest

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/distcache"
	"repro/internal/neat"
	"repro/internal/oracle"
	"repro/internal/proptest"
	"repro/internal/roadnet"
	"repro/internal/session"
	"repro/internal/traj"
)

// weightPresets maps proptest.Draw.WeightsPreset values to the neat
// presets; the oracle config copies the identical float values.
var weightPresets = []neat.Weights{
	proptest.WeightsFlowOnly:          neat.WeightsFlowOnly,
	proptest.WeightsDensityOnly:       neat.WeightsDensityOnly,
	proptest.WeightsSpeedOnly:         neat.WeightsSpeedOnly,
	proptest.WeightsBalanced:          neat.WeightsBalanced,
	proptest.WeightsTrafficMonitoring: neat.WeightsTrafficMonitoring,
}

// Materialize converts a neutral parameter draw into the two pipelines'
// configurations, copying identical numeric values into both.
func Materialize(d proptest.Draw) (neat.Config, oracle.Config, neat.Level, oracle.Level) {
	w := weightPresets[d.WeightsPreset]
	ncfg := neat.Config{
		Flow: neat.FlowConfig{Weights: w, Beta: d.Beta, MinCard: d.MinCard},
		Refine: neat.RefineConfig{
			Epsilon: d.Epsilon,
			MinPts:  d.MinPts,
			UseELB:  d.UseELB,
			Bounded: d.Bounded,
			Algo:    neat.SPAlgo(d.Algo),
			Workers: d.Workers,
		},
	}
	ocfg := oracle.Config{
		WFlow: w.Flow, WDensity: w.Density, WSpeed: w.Speed,
		Beta: d.Beta, MinCard: d.MinCard,
		Epsilon: d.Epsilon, MinPts: d.MinPts,
	}
	var nl neat.Level
	var ol oracle.Level
	switch d.Level {
	case proptest.LevelBase:
		nl, ol = neat.LevelBase, oracle.LevelBase
	case proptest.LevelFlow:
		nl, ol = neat.LevelFlow, oracle.LevelFlow
	default:
		nl, ol = neat.LevelOpt, oracle.LevelOpt
	}
	return ncfg, ocfg, nl, ol
}

// Instance generates the seeded random instance for one seed: a graph,
// a dataset over it, and a parameter draw.
func Instance(seed int64) (*roadnet.Graph, traj.Dataset, proptest.Draw, error) {
	rng := proptest.NewRand(seed)
	g, err := proptest.GenGraph(rng)
	if err != nil {
		return nil, traj.Dataset{}, proptest.Draw{}, err
	}
	gap := rng.Float64() * 0.5
	ds := proptest.GenDataset(rng, g, proptest.DatasetOpts{GapProb: gap})
	d := proptest.DrawConfig(rng)
	return g, ds, d, nil
}

// summary is the neutral canonical form both pipelines are rendered
// into; byte-equal renderings mean equivalent outputs.
type summary struct {
	fragments int
	base      []string
	filtered  int
	flows     []string
	clusters  []string
}

func (s summary) render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fragments %d\n", s.fragments)
	for _, l := range s.base {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "filtered %d\n", s.filtered)
	for _, l := range s.flows {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	for _, l := range s.clusters {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

// CanonicalNEAT renders a neat result into the canonical form.
func CanonicalNEAT(r *neat.Result) string {
	s := summary{fragments: r.NumFragments, filtered: r.FilteredFlows}
	for _, bc := range r.BaseClusters {
		s.base = append(s.base, fmt.Sprintf("base seg=%d density=%d trajs=%v",
			bc.Seg, bc.Density(), bc.ParticipatingTrajectories()))
	}
	index := make(map[*neat.FlowCluster]int, len(r.Flows))
	for i, f := range r.Flows {
		index[f] = i
		s.flows = append(s.flows, fmt.Sprintf("flow %d route=%v trajs=%v", i, []roadnet.SegID(f.Route), flowTrajs(f)))
	}
	for ci, c := range r.Clusters {
		idxs := make([]int, len(c.Flows))
		for k, f := range c.Flows {
			idxs[k] = index[f]
		}
		s.clusters = append(s.clusters, fmt.Sprintf("cluster %d flows=%v", ci, idxs))
	}
	return s.render()
}

// flowTrajs recovers a flow's sorted participant set from its members.
func flowTrajs(f *neat.FlowCluster) []traj.ID {
	seen := map[traj.ID]bool{}
	var out []traj.ID
	for _, m := range f.Members {
		for _, id := range m.ParticipatingTrajectories() {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	sortIDs(out)
	return out
}

func sortIDs(s []traj.ID) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// CanonicalOracle renders an oracle result into the canonical form.
func CanonicalOracle(r *oracle.Result) string {
	s := summary{fragments: r.NumFragments, filtered: r.FilteredFlows}
	for _, bc := range r.Base {
		s.base = append(s.base, fmt.Sprintf("base seg=%d density=%d trajs=%v",
			bc.Seg, bc.Density(), bc.Trajs))
	}
	for i, f := range r.Flows {
		s.flows = append(s.flows, fmt.Sprintf("flow %d route=%v trajs=%v", i, f.Route, f.Trajs))
	}
	for ci, c := range r.Clusters {
		s.clusters = append(s.clusters, fmt.Sprintf("cluster %d flows=%v", ci, c.Flows))
	}
	return s.render()
}

// Diff returns the first line where two canonical renderings differ,
// with one line of context from each side; "" when equal.
func Diff(a, b string) string {
	if a == b {
		return ""
	}
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) || i < len(bl); i++ {
		var av, bv string
		if i < len(al) {
			av = al[i]
		}
		if i < len(bl) {
			bv = bl[i]
		}
		if av != bv {
			return fmt.Sprintf("line %d: neat %q vs oracle %q", i+1, av, bv)
		}
	}
	return "renderings differ in length only"
}

// checkInstance runs the oracle once and the optimized pipeline three
// times — without a Phase 3 distance cache, with a cold one, and again
// with the same now-warm one — comparing each canonical rendering.
// This pins the distance cache's determinism contract: output is
// byte-identical with and without a persistent cache, including when
// a run hits entries written by an earlier run — the cross-run reuse
// the streaming clusterer and the server rely on.
func checkInstance(g *roadnet.Graph, ds traj.Dataset, d proptest.Draw) error {
	ncfg, ocfg, nl, ol := Materialize(d)
	ores, oerr := oracle.RunNEAT(g, ds, ocfg, ol)
	p := neat.NewPipeline(g)
	cache := distcache.New(0)
	for _, mode := range []string{"off", "cold", "warm"} {
		cfg := ncfg
		if mode != "off" {
			cfg.Refine.Cache = cache
		}
		var nres *neat.Result
		var nerr error
		if d.ParallelPhase1 {
			nres, nerr = p.RunParallel(ds, cfg, nl, 4)
		} else {
			nres, nerr = p.Run(ds, cfg, nl)
		}
		if (nerr != nil) != (oerr != nil) {
			return fmt.Errorf("cache=%s: error mismatch: neat=%v oracle=%v", mode, nerr, oerr)
		}
		if nerr != nil {
			continue // both rejected the instance identically
		}
		if diff := Diff(CanonicalNEAT(nres), CanonicalOracle(ores)); diff != "" {
			return fmt.Errorf("cache=%s: outputs diverge: %s", mode, diff)
		}
	}
	return nil
}

// servedRender renders what a session read answers: the filtered count,
// the flows with their participant lists (a served flow is detached
// from its members) and the clusters. A session read carries no base
// clusters and no fragment count, so neither side renders them.
func servedRender(r *neat.Result) string {
	s := summary{filtered: r.FilteredFlows}
	index := make(map[*neat.FlowCluster]int, len(r.Flows))
	for i, f := range r.Flows {
		index[f] = i
		s.flows = append(s.flows, fmt.Sprintf("flow %d route=%v trajs=%v", i, []roadnet.SegID(f.Route), f.ParticipatingTrajectories()))
	}
	for ci, c := range r.Clusters {
		idxs := make([]int, len(c.Flows))
		for k, f := range c.Flows {
			idxs[k] = index[f]
		}
		s.clusters = append(s.clusters, fmt.Sprintf("cluster %d flows=%v", ci, idxs))
	}
	return s.render()
}

// oracleServedRender renders an oracle result as servedRender does.
func oracleServedRender(r *oracle.Result) string {
	r2 := *r
	r2.NumFragments, r2.Base = 0, nil
	return CanonicalOracle(&r2)
}

// servedBatches splits ds into the 2–4 ingest batches the served leg
// sends for seed: contiguous runs of trajectories, each non-empty
// where ds allows.
func servedBatches(ds traj.Dataset, seed int64) [][]traj.Trajectory {
	rng := rand.New(rand.NewSource(seed))
	n := len(ds.Trajectories)
	cuts := []int{0, n}
	for k := 1 + rng.Intn(3); k > 0 && n > 1; k-- {
		cuts = append(cuts, 1+rng.Intn(n-1))
	}
	slices.Sort(cuts)
	cuts = slices.Compact(cuts)
	var out [][]traj.Trajectory
	for i := 1; i < len(cuts); i++ {
		out = append(out, ds.Trajectories[cuts[i-1]:cuts[i]])
	}
	return out
}

// checkServed is the served-read leg: it ingests ds in batches through
// a session.Session, as the server does, and after each batch compares
// a read at the draw's weights, β, minCard, ε and level, with the
// server's Phase 3 settings (the batched builder on the session's
// shared cache), against the oracle over the batches so far. The read
// folds each batch into the session's kept base-cluster set and
// filters its minCard-0 flow set, which no Pipeline.Run exercises.
// When the level runs Phase 3, a second read of the same snapshot at a
// seeded narrower ε (0.3–1.0 × the draw's) and a minCard up by 0 or 1
// is compared with the oracle at those parameters: the first read kept
// its pair table on the snapshot's flow set, so this one is a table
// read whenever it has two flows to pair. It returns how many reads a
// kept table answered.
func checkServed(g *roadnet.Graph, ds traj.Dataset, d proptest.Draw, seed int64) (tableReads int, err error) {
	ncfg, ocfg, nl, ol := Materialize(d)
	sess, err := session.New("selftest", g, session.Config{})
	if err != nil {
		return 0, err
	}
	defer sess.Close()
	ncfg.Refine = neat.RefineConfig{Epsilon: d.Epsilon, MinPts: d.MinPts, UseELB: true, Bounded: true, Workers: -1, Cache: sess.Cache()}
	ctx := context.Background()
	narrow := rand.New(rand.NewSource(seed + 1)) // a stream of its own, not servedBatches'
	var sofar traj.Dataset
	for bi, batch := range servedBatches(ds, seed) {
		sofar.Trajectories = append(sofar.Trajectories, batch...)
		ores, oerr := oracle.RunNEAT(g, sofar, ocfg, ol)
		ids := make([]traj.ID, len(batch))
		for i, tr := range batch {
			ids[i] = tr.ID
		}
		_, nerr := sess.Ingest(ctx, ids, func(i int) (traj.Trajectory, error) { return batch[i], nil })
		var res *neat.Result
		var fs *neat.FlowSet
		if nerr == nil {
			if fs, nerr = sess.Flows(ctx, sess.Current(), ncfg); nerr == nil {
				res, nerr = sess.Refine(ctx, fs, ncfg, nl)
			}
		}
		if (nerr != nil) != (oerr != nil) {
			return tableReads, fmt.Errorf("served batch %d: error mismatch: session=%v oracle=%v", bi, nerr, oerr)
		}
		if nerr != nil {
			return tableReads, nil // both rejected the data so far identically
		}
		if diff := Diff(servedRender(res), oracleServedRender(ores)); diff != "" {
			return tableReads, fmt.Errorf("served batch %d: outputs diverge: %s", bi, diff)
		}
		if nl != neat.LevelOpt {
			continue
		}
		ncfg2, ocfg2 := ncfg, ocfg
		ncfg2.Refine.Epsilon = d.Epsilon * (0.3 + 0.7*narrow.Float64())
		ncfg2.Flow.MinCard = d.MinCard + narrow.Intn(2)
		ocfg2.Epsilon, ocfg2.MinCard = ncfg2.Refine.Epsilon, ncfg2.Flow.MinCard
		ores, oerr = oracle.RunNEAT(g, sofar, ocfg2, ol)
		res, nerr = sess.Refine(ctx, fs, ncfg2, nl)
		name := fmt.Sprintf("served batch %d, second read at ε %g minCard %d", bi, ncfg2.Refine.Epsilon, ncfg2.Flow.MinCard)
		if (nerr != nil) != (oerr != nil) {
			return tableReads, fmt.Errorf("%s: error mismatch: session=%v oracle=%v", name, nerr, oerr)
		}
		if nerr != nil {
			continue
		}
		if res.RefineStats.FromTable {
			tableReads++
		}
		if diff := Diff(servedRender(res), oracleServedRender(ores)); diff != "" {
			return tableReads, fmt.Errorf("%s: outputs diverge: %s", name, diff)
		}
	}
	return tableReads, nil
}

// CheckSeed runs the differential check for one seed: the pipeline
// (checkInstance) and the served read (checkServed) against the
// oracle. A nil return means both agreed with it byte for byte.
func CheckSeed(seed int64) error {
	g, ds, d, err := Instance(seed)
	if err != nil {
		return fmt.Errorf("seed %d: instance generation: %w", seed, err)
	}
	for _, check := range []func(traj.Dataset) error{
		func(ds traj.Dataset) error { return checkInstance(g, ds, d) },
		func(ds traj.Dataset) error {
			_, err := checkServed(g, ds, d, seed)
			return err
		},
	} {
		if err := check(ds); err != nil {
			// Bisect the dataset to a minimal counterexample before
			// reporting; the shrunk size tells the investigator how
			// much input actually matters.
			small := proptest.ShrinkDataset(ds, func(cand traj.Dataset) bool {
				return check(cand) != nil
			})
			return fmt.Errorf("seed %d: %w (shrunk to %d of %d trajectories)\nreproduce: neatcli selftest -seed %d -n 1",
				seed, err, len(small.Trajectories), len(ds.Trajectories), seed)
		}
	}
	return nil
}

// Options parameterizes RunSuite.
type Options struct {
	// N is the number of consecutive seeds to check, starting at Seed.
	N int
	// Seed is the first seed.
	Seed int64
	// Out receives progress output; nil discards it.
	Out io.Writer
	// Verbose prints one line per seed rather than a final summary.
	Verbose bool
}

// RunSuite checks N consecutive seeds and returns the seeds that
// failed, printing each failure (with its reproduction line) to Out.
func RunSuite(opts Options) []int64 {
	out := opts.Out
	if out == nil {
		out = io.Discard
	}
	var failed []int64
	for i := 0; i < opts.N; i++ {
		seed := opts.Seed + int64(i)
		if err := CheckSeed(seed); err != nil {
			failed = append(failed, seed)
			fmt.Fprintf(out, "FAIL %v\n", err)
			continue
		}
		if opts.Verbose {
			fmt.Fprintf(out, "ok seed %d\n", seed)
		}
	}
	fmt.Fprintf(out, "selftest: %d/%d seeds passed\n", opts.N-len(failed), opts.N)
	return failed
}
