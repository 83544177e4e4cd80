// Command neatbench regenerates the tables and figures of the paper's
// evaluation section (§IV) and prints paper-vs-measured rows.
//
// Usage:
//
//	neatbench [-scale 0.1] [-out results/] [-exp fig5] [-exp table1] ...
//	neatbench -scale 0.05 -phasejson results/BENCH_phase_times.json
//	neatbench -scale 0.05 -streamjson BENCH_stream_ingest.json -streamguard 1.5
//	neatbench -scale 0.05 -recoveryjson BENCH_recovery.json
//
// With no -exp flags, every experiment runs in the paper's order;
// -phasejson with no -exp runs only the fixed phase-timing scenario
// and writes the per-phase JSON report (the CI bench artifact);
// -streamjson likewise runs only the steady-state streaming scenario
// (the cached clusterer against a from-scratch merge) and -streamguard
// fails the process unless the clusterer is at least that factor
// faster;
// -recoveryjson runs only the crash-recovery scenario (durable
// restart vs cold start, time-to-first-ingest across windows). The
// scale factor shrinks maps and datasets together (see
// internal/experiments); absolute times are machine-dependent, the
// relationships between systems are the reproduction target.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/experiments"
)

type expList []string

func (l *expList) String() string { return fmt.Sprint(*l) }
func (l *expList) Set(v string) error {
	*l = append(*l, v)
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "neatbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("neatbench", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var (
		scale        = fs.Float64("scale", 0.1, "map and dataset scale factor in (0, 1]")
		out          = fs.String("out", "results", "directory for SVG artifacts")
		format       = fs.String("format", "text", "output format: text or md")
		phaseJSON    = fs.String("phasejson", "", "write the per-phase timing report of the fixed scenario to this JSON path")
		streamJSON   = fs.String("streamjson", "", "write the steady-state stream-ingest report (cached clusterer vs from-scratch merge) to this JSON path")
		streamGuard  = fs.Float64("streamguard", 0, "fail unless the stream-ingest cached/from-scratch speedup is at least this factor (0 = no guard; implies the stream scenario runs)")
		recoveryJSON = fs.String("recoveryjson", "", "write the crash-recovery report (durable restart vs cold start) to this JSON path")
		exps         expList
	)
	fs.Var(&exps, "exp", "experiment id to run (repeatable); default all")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *format != "text" && *format != "md" {
		return fmt.Errorf("unknown format %q (want text or md)", *format)
	}

	env, err := experiments.NewEnv(*scale)
	if err != nil {
		return err
	}
	ids := []string(exps)
	if len(ids) == 0 && *phaseJSON == "" && *streamJSON == "" && *streamGuard == 0 && *recoveryJSON == "" {
		ids = experiments.Order()
	}
	fmt.Fprintf(stdout, "NEAT reproduction harness — scale %.3g, %d experiment(s)\n\n", *scale, len(ids))
	for _, id := range ids {
		start := time.Now()
		tab, err := experiments.Run(env, id, *out)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", id, err)
		}
		if *format == "md" {
			if _, err := tab.WriteMarkdown(stdout); err != nil {
				return err
			}
		} else if _, err := tab.WriteTo(stdout); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "(%s completed in %s)\n", id, time.Since(start).Round(time.Millisecond))
	}
	if *phaseJSON != "" {
		if err := writePhaseTimes(env, *phaseJSON, stdout); err != nil {
			return err
		}
	}
	if *streamJSON != "" || *streamGuard > 0 {
		if err := runStreamIngest(env, *streamJSON, *streamGuard, stdout); err != nil {
			return err
		}
	}
	if *recoveryJSON != "" {
		if err := runRecovery(env, *recoveryJSON, stdout); err != nil {
			return err
		}
	}
	return nil
}

// writePhaseTimes runs the fixed phase-timing scenario and writes the
// JSON report CI uploads as the BENCH_phase_times.json artifact.
func writePhaseTimes(env *experiments.Env, path string, stdout io.Writer) error {
	start := time.Now()
	rep, err := experiments.PhaseTimes(env)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "phase times (%d trajectories, %d segments) written to %s\n",
		rep.Trajectories, rep.Segments, path)
	fmt.Fprintf(os.Stderr, "(phase-times completed in %s)\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// runStreamIngest runs the fixed steady-state streaming scenario
// (cached clusterer vs from-scratch merge), optionally writes the JSON
// report CI uploads as BENCH_stream_ingest.json, and optionally
// enforces a minimum cached/from-scratch speedup — the CI bench-smoke
// guard against the distance cache or the maintained ε-graph silently
// regressing into a no-op.
func runStreamIngest(env *experiments.Env, path string, guard float64, stdout io.Writer) error {
	start := time.Now()
	rep, err := experiments.StreamIngest(env)
	if err != nil {
		return err
	}
	for _, m := range rep.Modes {
		fmt.Fprintf(stdout, "stream-ingest %-12s %8.2f ms/ingest  (%d SP queries, %d cache hits / %d misses)\n",
			m.Config, m.PerIngestMs, m.SPQueries, m.CacheHits, m.CacheMisses)
	}
	fmt.Fprintf(stdout, "stream-ingest speedup: %.2fx cached over from-scratch\n", rep.Speedup)
	if path != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if dir := filepath.Dir(path); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "stream-ingest report written to %s\n", path)
	}
	fmt.Fprintf(os.Stderr, "(stream-ingest completed in %s)\n", time.Since(start).Round(time.Millisecond))
	if guard > 0 && rep.Speedup < guard {
		return fmt.Errorf("stream-ingest speedup %.2fx below the %.2gx guard", rep.Speedup, guard)
	}
	return nil
}

// runRecovery runs the fixed crash-recovery scenario (durable restart
// vs best-case cold start across window sizes) and writes the JSON
// report CI uploads as BENCH_recovery.json.
func runRecovery(env *experiments.Env, path string, stdout io.Writer) error {
	start := time.Now()
	rep, err := experiments.Recovery(env)
	if err != nil {
		return err
	}
	for _, r := range rep.Rows {
		fmt.Fprintf(stdout, "recovery window=%d  cold %8.2f ms  recovered %8.2f ms  (open %.2f ms, %d records replayed, %.1fx)\n",
			r.Window, r.ColdMs, r.RecoveredMs, r.OpenMs, r.ReplayedRecords, r.Speedup)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "recovery report written to %s\n", path)
	fmt.Fprintf(os.Stderr, "(recovery completed in %s)\n", time.Since(start).Round(time.Millisecond))
	return nil
}
