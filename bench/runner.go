package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/server"
)

type options struct {
	seed    int64
	seconds int
	trace   bool
	workdir string
	// reps is how many times setup runs; setup_s is their median.
	reps int
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// pinned holds the fingerprints of the workload inputs: pools for every
// seed, schedules for seed 1 at the default duration. A change to
// mapgen, mobisim or experiments that alters what a workload sends
// fails the run here instead of silently moving the baseline.
//
//go:embed fingerprints.json
var pinnedJSON []byte

type pins struct {
	Pools map[string]string `json:"pools"`
	Seed1 map[string]string `json:"seed1"`
}

func hex64(v uint64) string { return fmt.Sprintf("%016x", v) }

func checkPins(w *workload, pl *plan, opts options) error {
	var p pins
	if err := json.Unmarshal(pinnedJSON, &p); err != nil {
		return fmt.Errorf("fingerprints.json: %w", err)
	}
	if got := hex64(pl.pool); got != p.Pools[w.name] {
		return fmt.Errorf("%s: input pools changed: fingerprint %s, pinned %s (mapgen, mobisim or experiments output moved)", w.name, got, p.Pools[w.name])
	}
	if opts.seed == 1 && opts.seconds == defaultSeconds {
		if got := hex64(pl.fingerprint()); got != p.Seed1[w.name] {
			return fmt.Errorf("%s: seed-1 schedule changed: fingerprint %s, pinned %s", w.name, got, p.Seed1[w.name])
		}
	}
	return nil
}

// serverConfig is neatserver's default configuration: a metrics
// registry, serial Phase 3, no shards, and with a data directory
// fsync=always and a checkpoint every 8 ingests.
func serverConfig(reg *obs.Registry, dir string) server.Config {
	cfg := server.Config{Obs: reg}
	if dir != "" {
		cfg.Persist = &persist.Options{Dir: dir, Fsync: persist.FsyncAlways}
	}
	return cfg
}

// setupServer brings up the server the load runs against and returns
// each setup repetition's duration. In-memory workloads open, preload
// and warm a fresh server per repetition. The durable workload first
// writes its data directory once — the preload as 20 batches, then an
// abort, so recovery finds a checkpoint plus a WAL tail to replay — and
// each repetition is one recovering Open, aborted before the next.
func setupServer(w *workload, pl *plan, dir string, reps int) (*server.Server, *obs.Registry, []float64, error) {
	var times []float64
	var srv *server.Server
	var reg *obs.Registry
	if w.durable {
		prep, err := server.Open(pl.graph, serverConfig(obs.NewRegistry(), dir))
		if err != nil {
			return nil, nil, nil, err
		}
		err = setUp(prep.Handler(), pl, false)
		prep.Abort()
		if err != nil {
			return nil, nil, nil, err
		}
	}
	for i := 0; i < reps; i++ {
		if srv != nil {
			srv.Abort()
		}
		runtime.GC() // keeps one repetition's garbage out of the next one's time
		reg = obs.NewRegistry()
		start := time.Now()
		var err error
		if w.durable {
			srv, err = server.Open(pl.graph, serverConfig(reg, dir))
		} else {
			srv, err = server.Open(pl.graph, serverConfig(reg, ""))
			if err == nil {
				err = setUp(srv.Handler(), pl, true)
			}
		}
		if err != nil {
			return nil, nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return srv, reg, times, nil
}

// registry is a registry snapshot with series summed across labels.
type registry struct {
	counters, gauges, sums, counts map[string]float64
}

func readRegistry(reg *obs.Registry) (registry, error) {
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		return registry{}, err
	}
	var doc struct {
		Counters   map[string]int64
		Gauges     map[string]float64
		Histograms map[string]struct {
			Count int64
			Sum   float64
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return registry{}, err
	}
	r := registry{map[string]float64{}, map[string]float64{}, map[string]float64{}, map[string]float64{}}
	name := func(id string) string { return strings.SplitN(id, "{", 2)[0] }
	for id, v := range doc.Counters {
		r.counters[name(id)] += float64(v)
	}
	for id, v := range doc.Gauges {
		r.gauges[name(id)] += v
	}
	for id, h := range doc.Histograms {
		r.sums[name(id)] += h.Sum
		r.counts[name(id)] += float64(h.Count)
	}
	return r, nil
}

// heapAlloc is the live heap after a full collection. Two cycles: the
// first only moves sync.Pool contents (encoding/json's buffers among
// them) to the victim cache, the second frees them.
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// serve exposes h on a loopback port until the returned stop is called;
// stop returns once the server goroutine has exited.
func serve(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns http.ErrServerClosed after Close
	}()
	return "http://" + ln.Addr().String(), func() { hs.Close(); <-done }, nil
}

// outcome is one workload run: request counts, the end-to-end metrics,
// and with tracing the per-layer ones.
type outcome struct {
	attempted, failed int
	endToEnd, layers  map[string]metric
}

// runWorkload runs one workload end to end: inputs, setup, load,
// correctness gate, and with opts.trace the in-process replay. It
// writes a human-readable report to out.
func runWorkload(w *workload, p *pools, opts options, out io.Writer) (outcome, error) {
	pl, err := buildPlan(w, p, opts.seed, opts.seconds)
	if err != nil {
		return outcome{}, err
	}
	if err := checkPins(w, pl, opts); err != nil {
		return outcome{}, err
	}
	dir, err := os.MkdirTemp(opts.workdir, w.name+"-")
	if err != nil {
		return outcome{}, err
	}
	defer os.RemoveAll(dir)
	durableDir := ""
	if w.durable {
		durableDir = filepath.Join(dir, "data")
	}

	heapBase := heapAlloc()
	srv, reg, setupTimes, err := setupServer(w, pl, durableDir, opts.reps)
	if err != nil {
		return outcome{}, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	prepared := ""
	if opts.trace && w.durable {
		// The run appends to the data directory; the replay needs it as
		// setup left it.
		prepared = filepath.Join(dir, "prepared")
		if err := os.Mkdir(prepared, 0o755); err != nil {
			return outcome{}, err
		}
		if err := copyFiles(durableDir, prepared); err != nil {
			return outcome{}, err
		}
	}
	base := len(srv.Sessions().Default().Current().Fragments)
	mux := http.NewServeMux() // neatserver's layout: the API at /, metrics beside it
	mux.Handle("/", srv.Handler())
	mux.Handle("/metrics", reg.MetricsHandler())
	url, stop, err := serve(mux)
	if err != nil {
		return outcome{}, err
	}
	var before registry
	gen := &generator{baseURL: url, conns: runtime.NumCPU(), sleep: time.Sleep}
	lr := gen.run(pl.ops, func() { before, err = readRegistry(reg) })
	stop()
	if err != nil {
		return outcome{}, err
	}
	after, err := readRegistry(reg)
	if err != nil {
		return outcome{}, err
	}
	heap := (float64(heapAlloc()) - float64(heapBase)) / (1 << 20)

	if lr.lateMax > maxLate {
		return outcome{}, fmt.Errorf("%s: invalid run: the dispatcher fell %v behind schedule (limit %v)", w.name, lr.lateMax, maxLate)
	}
	sampled, err := verify(pl, lr, base, srv, durableDir)
	if err != nil {
		return outcome{}, fmt.Errorf("%s: correctness: %w", w.name, err)
	}

	var res outcome
	var totals []time.Duration
	for _, o := range lr.ops {
		totals = append(totals, o.total)
		for _, s := range o.steps {
			res.attempted++
			if s.err != nil {
				res.failed++
			}
		}
	}
	opMs := ms(totals)
	res.endToEnd = map[string]metric{
		"setup_s": {median(setupTimes), "s"},
		"p50_ms":  {quantile(opMs, 0.50), "ms"},
		"heap_mb": {heap, "MiB"},
	}
	fmt.Fprintf(out, "== %s  seed=%d  seconds=%d  rate=%g/s  conns=%d  ops=%d  requests=%d  failed=%d\n",
		w.name, opts.seed, opts.seconds, w.rate, gen.conns, len(pl.ops), res.attempted, res.failed)
	fmt.Fprintf(out, "why: %s\n", w.why)
	fmt.Fprintf(out, "inputs: pool %s, schedule %s\n", hex64(pl.pool), hex64(pl.fingerprint()))
	writeLatencies(out, pl, lr)
	fmt.Fprintf(out, "setup_s %.4f (median of %d: %s)  heap_mb %.2f MiB  timer lag p50 %.3f ms  late max %.3f ms\n",
		median(setupTimes), len(setupTimes), fmtList(setupTimes, "%.4f"), heap, quantile(ms(lr.timerLag), 0.5), float64(lr.lateMax)/1e6)
	fmt.Fprintf(out, "correctness: ok (%d acknowledged ingests in commit order, %d sampled reads byte-identical to the model", countAcks(pl, lr), sampled)
	if w.durable {
		fmt.Fprint(out, ", abort+reopen recovered exactly the acknowledged state")
	}
	fmt.Fprintln(out, ")")
	shown := 0
	for _, o := range lr.ops {
		for _, s := range o.steps {
			if s.err != nil && shown < 5 {
				fmt.Fprintf(out, "failed request: %v\n", s.err)
				shown++
			}
		}
	}
	if !opts.trace {
		return res, nil
	}
	layers, report, err := traceLayers(pl, lr, before, after, prepared, dir, opts.seconds)
	if err != nil {
		return outcome{}, fmt.Errorf("%s: trace: %w", w.name, err)
	}
	res.layers = layers
	fmt.Fprint(out, report)
	return res, nil
}

func countAcks(pl *plan, lr loadResult) int {
	n := 0
	for i, o := range pl.ops {
		for si, s := range o.steps {
			if s.route == routeIngest && lr.ops[i].steps[si].err == nil {
				n++
			}
		}
	}
	return n
}

func fmtList(vs []float64, format string) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf(format, v)
	}
	return strings.Join(parts, " ")
}

// writeLatencies prints the per-route latency table: each route's
// requests (a step's latency runs from its op's start, or from the end
// of the previous step of the same op), and the op itself.
func writeLatencies(out io.Writer, pl *plan, lr loadResult) {
	byRoute := map[string][]time.Duration{}
	var ops []time.Duration
	for i, o := range pl.ops {
		ops = append(ops, lr.ops[i].total)
		for si, s := range o.steps {
			byRoute[s.route] = append(byRoute[s.route], lr.ops[i].steps[si].lat)
		}
	}
	routes := make([]string, 0, len(byRoute))
	for r := range byRoute {
		routes = append(routes, r)
	}
	sort.Strings(routes)
	row := func(name string, ds []time.Duration) {
		v := ms(ds)
		fmt.Fprintf(out, "  %-10s n=%-6d p50 %9.3f  p95 %9.3f  p99 %9.3f  max %9.3f ms\n",
			name, len(v), quantile(v, 0.5), quantile(v, 0.95), quantile(v, 0.99), quantile(v, 1))
	}
	fmt.Fprintln(out, "latency from due time (ms):")
	if len(pl.ops) > 0 && len(pl.ops[0].steps) > 1 {
		row("round", ops)
	}
	for _, r := range routes {
		row(r, byRoute[r])
	}
}
