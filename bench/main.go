// Command bench is the serve-path benchmark of the NEAT server: seeded
// open-loop HTTP workloads over loopback against an in-process
// server.Open configured as neatserver's defaults, with a correctness
// gate on every run and, with --trace 1, an in-process traced replay
// that splits the time by layer. See README.md.
//
// Run it from the repository root:
//
//	bash bench/run.sh [--workload all|NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//	bash bench/run.sh --compare BASE.jsonl HEAD.jsonl
//	bash bench/run.sh --fingerprints
//
// Each workload run prints a report, then one JSON line:
// {"correct", "attempted", "failed", "metrics"}. A failed correctness
// check or an invalid run (the generator fell behind schedule) exits 1
// without printing numbers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// defaultSeconds is the load per workload; it equals run_seconds in
// BENCHMARK.json, and the seed-1 schedule fingerprints are pinned at it.
const defaultSeconds = 25

// setupReps is how many times each workload's setup runs; setup_s is
// the median.
const setupReps = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// record is one workload run as --out appends it: the result line plus
// what identifies the run.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

func run(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "all, or one of: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "seed of the generated schedule")
	seconds := fs.Int("seconds", defaultSeconds, "seconds of load per workload")
	trace := fs.Int("trace", 0, "1 adds the traced in-process replay and reports per-layer metrics instead of end-to-end ones")
	outPath := fs.String("out", "", "append one JSON record per workload run to this file (input for --compare)")
	workdir := fs.String("workdir", ".bench_build", "directory for durable data and replay copies")
	compare := fs.Bool("compare", false, "compare two --out files: --compare BASE HEAD")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark definition whose bounds --compare applies")
	printPins := fs.Bool("fingerprints", false, "print the input fingerprints fingerprints.json pins, and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: --compare takes two files: BASE HEAD")
			return 2
		}
		if err := compareFiles(*spec, fs.Arg(0), fs.Arg(1), stdout); err != nil {
			return fail(err)
		}
		return 0
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds < 1 {
		fmt.Fprintln(stderr, "bench: want --trace 0|1, --seconds >= 1 and no positional arguments")
		return 2
	}
	selected := workloads
	if *name != "all" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q (have all, %s)\n", *name, strings.Join(names, ", "))
			return 2
		}
		selected = []*workload{w}
	}
	p, err := newPools()
	if err != nil {
		return fail(err)
	}
	if *printPins {
		out := pins{Pools: map[string]string{}, Seed1: map[string]string{}}
		for _, w := range workloads {
			pl, err := buildPlan(w, p, 1, defaultSeconds)
			if err != nil {
				return fail(err)
			}
			out.Pools[w.name], out.Seed1[w.name] = hex64(pl.pool), hex64(pl.fingerprint())
		}
		b, _ := json.MarshalIndent(out, "", "  ")
		fmt.Fprintln(stdout, string(b))
		return 0
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return fail(err)
	}
	opts := options{seed: *seed, seconds: *seconds, trace: *trace == 1, workdir: *workdir, reps: setupReps}
	for _, w := range selected {
		oc, err := runWorkload(w, p, opts, stdout)
		if err != nil {
			return fail(err)
		}
		res := result{Correct: true, Attempted: oc.attempted, Failed: oc.failed, Metrics: oc.endToEnd}
		if opts.trace {
			res.Metrics = oc.layers
		}
		if *outPath != "" {
			if err := appendRecord(*outPath, record{Workload: w.name, Seed: *seed, Trace: *trace, result: res}); err != nil {
				return fail(err)
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, string(line))
	}
	return 0
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
