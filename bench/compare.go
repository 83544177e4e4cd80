package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json --compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// readRecords loads an --out file: per workload, per metric, the values
// in run order.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// compareFiles prints, for each workload and metric both files hold,
// each side's median and IQR over its runs and a verdict. Runs pair up
// in file order.
func compareFiles(specPath, basePath, headPath string, w io.Writer) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	base, err := readRecords(basePath)
	if err != nil {
		return err
	}
	head, err := readRecords(headPath)
	if err != nil {
		return err
	}
	type metricSpec struct {
		name        string
		lowerBetter bool
		bound       float64 // < 0: none (per-layer)
	}
	var metrics []metricSpec
	for _, m := range spec.EndToEnd {
		metrics = append(metrics, metricSpec{m.Name, m.Better == "lower", m.Bound})
	}
	for _, m := range spec.PerLayer {
		metrics = append(metrics, metricSpec{m.Name, m.Better == "lower", -1})
	}
	var names []string
	for wl := range base {
		names = append(names, wl)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-15s %-26s %12s %9s %12s %9s %6s  %s\n", "workload", "metric", "base median", "base IQR", "head median", "head IQR", "wins", "verdict")
	for _, wl := range names {
		for _, m := range metrics {
			b, h := base[wl][m.name], head[wl][m.name]
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			v, wins, pairs := verdict(b, h, m.lowerBetter, m.bound)
			qb, qh := quartiles(b), quartiles(h)
			fmt.Fprintf(w, "%-15s %-26s %12.4f %9.4f %12.4f %9.4f %3d/%-2d  %s\n",
				wl, m.name, median(b), qb[2]-qb[0], median(h), qh[2]-qh[0], wins, pairs, v)
		}
	}
	return nil
}

// verdict judges head against base. Better: head wins at least 9 of 10
// pairs and the medians differ by more than base's IQR. Worse: head's
// median is worse than base's by more than the bound (for a metric
// without a bound, the mirror of the better rule). Unresolved: base's
// own spread is wider than the bound and not every head run beats every
// base run, or, without a bound, neither rule holds. Otherwise the
// change stays within the bound.
func verdict(base, head []float64, lowerBetter bool, bound float64) (string, int, int) {
	better := func(a, b float64) bool {
		if lowerBetter {
			return a < b
		}
		return a > b
	}
	pairs := min(len(base), len(head))
	wins, losses := 0, 0
	for i := 0; i < pairs; i++ {
		switch {
		case better(head[i], base[i]):
			wins++
		case better(base[i], head[i]):
			losses++
		}
	}
	bm, hm := median(base), median(head)
	q := quartiles(base)
	iqr := q[2] - q[0]
	claim := func(won int, a, b float64) bool {
		return won*10 >= 9*pairs && better(a, b) && math.Abs(a-b) > iqr
	}
	switch {
	case claim(wins, hm, bm):
		return "better", wins, pairs
	case bound < 0 && claim(losses, bm, hm):
		return "worse", wins, pairs
	case bound < 0:
		return "unresolved", wins, pairs
	case better(bm, hm) && math.Abs(hm-bm) > bound*math.Abs(bm):
		return "worse", wins, pairs
	case iqr > bound*math.Abs(bm) && !allBetter(head, base, better):
		return "unresolved", wins, pairs
	}
	return "within bound", wins, pairs
}

// allBetter reports whether every head run beats every base run.
func allBetter(head, base []float64, better func(a, b float64) bool) bool {
	for _, h := range head {
		for _, b := range base {
			if !better(h, b) {
				return false
			}
		}
	}
	return true
}
