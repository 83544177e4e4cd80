package selftest

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/neat"
	"repro/internal/oracle"
	"repro/internal/proptest"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// TestDifferentialSuite is the tentpole assertion: across 120 seeded
// random instances — random graphs, random datasets with sampling gaps,
// random parameter draws covering all levels, kernels, optimization
// toggles, and worker counts — the optimized pipeline must match the
// naive oracle byte for byte (cluster membership, representative
// routes, participant sets, filter counts).
func TestDifferentialSuite(t *testing.T) {
	const n = 120
	for seed := int64(0); seed < n; seed++ {
		if err := CheckSeed(seed); err != nil {
			t.Errorf("%v", err)
		}
	}
}

// TestDifferentialSuiteDraws spot-checks that the instance stream
// actually exercises the interesting configurations: every level,
// every kernel, gaps, and parallel Phase 1.
func TestDifferentialSuiteDraws(t *testing.T) {
	levels := map[int]int{}
	algos := map[int]int{}
	parallel := 0
	for seed := int64(0); seed < 120; seed++ {
		_, _, d, err := Instance(seed)
		if err != nil {
			t.Fatal(err)
		}
		levels[d.Level]++
		algos[d.Algo]++
		if d.ParallelPhase1 {
			parallel++
		}
	}
	if len(levels) != 3 {
		t.Errorf("levels seen: %v", levels)
	}
	if len(algos) != 5 {
		t.Errorf("kernels seen: %v", algos)
	}
	if parallel == 0 {
		t.Error("no instance drew parallel Phase 1")
	}
}

// TestServedLegReadsKeptTables checks that the served leg's second
// reads are answered from kept pair tables on many seeds, so its
// comparisons with the oracle cover the table filter and not only
// builds.
func TestServedLegReadsKeptTables(t *testing.T) {
	reads := 0
	for seed := int64(0); seed < 40; seed++ {
		g, ds, d, err := Instance(seed)
		if err != nil {
			t.Fatal(err)
		}
		n, err := checkServed(g, ds, d, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		reads += n
	}
	t.Logf("%d kept-table reads", reads)
	if reads < 10 {
		t.Fatalf("the served leg made %d kept-table reads over 40 seeds", reads)
	}
}

// TestRunSuite exercises the CLI-facing driver.
func TestRunSuite(t *testing.T) {
	var buf bytes.Buffer
	failed := RunSuite(Options{N: 5, Seed: 1000, Out: &buf})
	if len(failed) != 0 {
		t.Fatalf("failed seeds: %v\n%s", failed, buf.String())
	}
	if !strings.Contains(buf.String(), "5/5 seeds passed") {
		t.Errorf("summary missing: %q", buf.String())
	}
}

// TestCanonicalDisagreementIsReported forces a parameter disagreement
// between the two pipelines and checks the harness catches it and
// emits a reproduction seed — the harness must be able to fail.
func TestCanonicalDisagreementIsReported(t *testing.T) {
	for seed := int64(0); ; seed++ {
		if seed == 50 {
			t.Fatal("no instance with flows found in 50 seeds")
		}
		g, ds, d, err := Instance(seed)
		if err != nil {
			t.Fatal(err)
		}
		d.Level = proptest.LevelOpt
		ncfg, ocfg, nl, _ := Materialize(d)
		// Sabotage: the oracle filters every flow away.
		ocfg.MinCard = 1 << 20

		nres, err := runNEATFor(t, g, ds, ncfg, nl)
		if err != nil {
			t.Fatal(err)
		}
		if len(nres.Flows) == 0 {
			continue
		}
		ores, err := runOracleFor(g, ds, ocfg)
		if err != nil {
			t.Fatal(err)
		}
		diff := Diff(CanonicalNEAT(nres), CanonicalOracle(ores))
		if diff == "" {
			t.Fatal("sabotaged configs still agreed — harness cannot detect divergence")
		}
		return
	}
}

func runNEATFor(t *testing.T, g *roadnet.Graph, ds traj.Dataset, cfg neat.Config, level neat.Level) (*neat.Result, error) {
	t.Helper()
	return neat.NewPipeline(g).Run(ds, cfg, level)
}

func runOracleFor(g *roadnet.Graph, ds traj.Dataset, cfg oracle.Config) (*oracle.Result, error) {
	return oracle.RunNEAT(g, ds, cfg, oracle.LevelOpt)
}

func TestDiff(t *testing.T) {
	if d := Diff("a\nb\n", "a\nb\n"); d != "" {
		t.Errorf("equal inputs diff %q", d)
	}
	if d := Diff("a\nb\n", "a\nc\n"); !strings.Contains(d, "line 2") {
		t.Errorf("diff %q should locate line 2", d)
	}
}
